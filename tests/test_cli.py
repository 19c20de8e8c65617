import filecmp
import hashlib
import io
import math
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mricascade import (
    CheckpointFormatError,
    ComplexImage,
    InvalidParameterError,
    InvalidShapeError,
    Rng,
    apply_encoding,
    build_model,
    generate_mask,
    load_checkpoint,
    reconstruct,
    save_checkpoint,
    zero_filled,
    zero_model,
)
from mricascade import cli
from mricascade.cli import EvalReport, main, read_manifest, _quantize_unit
from mricascade.gradcheck import THRESHOLDS, run_gradcheck
from mricascade.tensorcore import load_image, load_tensor, save_image, save_tensor, write_tensor


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["generate", "--n", "6", "--size", "32", "--seed", "4", "--out", str(out)]) == 0
    return out


def assert_input_error(code, capsys):
    """Exit 2 with exactly one stderr line, which starts with 'error:'."""
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


class TestGenerate:
    def test_writes_files_and_manifest(self, dataset):
        entries = read_manifest(dataset)
        assert len(entries) == 6
        splits = [s for _, s in entries]
        assert splits.count("train") == 5 and splits.count("test") == 1
        for path, _ in entries:
            assert load_image(path).height == 32

    def test_rerun_is_byte_identical(self, dataset, tmp_path):
        again = tmp_path / "again"
        assert main(["generate", "--n", "6", "--size", "32", "--seed", "4", "--out", str(again)]) == 0
        for path, _ in read_manifest(dataset):
            assert filecmp.cmp(path, again / path.name, shallow=False)

    def test_output_bytes_pinned(self, tmp_path):
        # the phantom recipe and the per-image seed derivation are fixed: a
        # rewrite of the generator must reproduce these files byte for byte
        expected = {
            "manifest.txt": "ebfed029778ecb1b30a8c06504e606d8c4cb250e767a6b399eb935d28e16fe58",
            "phantom_000.cxt": "24a136b7caba4f743645c3b5acbb19c63c8fd74ac51da670a203dbfda1df21d3",
            "phantom_001.cxt": "302f0dcd2b7a2c6aca1987a05f2da3bdfef3139abeb05a5c6df78b608679cf10",
            "phantom_002.cxt": "0c859b54bf994c79146dbc4f3c9e3d3421bd1dd368e704fb727333d37d5cd359",
        }
        out = tmp_path / "pinned"
        assert main(["generate", "--n", "3", "--size", "16", "--seed", "5", "--out", str(out)]) == 0
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} == expected

    def test_zero_count_is_usage_error(self, tmp_path, capsys):
        code = main(["generate", "--n", "0", "--out", str(tmp_path / "x")])
        assert "--n must be >= 1" in assert_input_error(code, capsys)

    @pytest.mark.parametrize("fraction", ["1.5", "nan", "-0.5"])
    def test_bad_train_fraction_writes_nothing(self, tmp_path, capsys, fraction):
        out = tmp_path / "D"
        argv = ["generate", "--n", "3", "--size", "8", "--train-fraction", fraction, "--out", str(out)]
        assert "train_fraction" in assert_input_error(main(argv), capsys)
        assert not out.exists()

    def test_bad_flag_is_usage_error(self, capsys):
        assert main(["generate", "--wat", "1"]) == 2
        capsys.readouterr()


class TestTrain:
    def test_zero_epochs_writes_he_initialization(self, dataset, tmp_path):
        ckpt = tmp_path / "init.csc1"
        code = main(
            ["train", "--data", str(dataset), "--nc", "2", "--nd", "2", "--nf", "4",
             "--epochs", "0", "--seed", "12", "--out", str(ckpt)]
        )
        assert code == 0
        model = load_checkpoint(ckpt)
        expected = build_model(Rng(12).child(0), 2, 2, 4)
        for a, b in zip(model.parameters(), expected.parameters()):
            assert np.array_equal(a, b)

    def test_short_run_writes_checkpoint_and_log(self, dataset, tmp_path):
        ckpt = tmp_path / "m.csc1"
        code = main(
            ["train", "--data", str(dataset), "--acceleration", "3", "--n-low", "4",
             "--nc", "2", "--nd", "2", "--nf", "4", "--epochs", "2",
             "--batch-size", "2", "--seed", "1", "--out", str(ckpt)]
        )
        assert code == 0
        assert ckpt.is_file()
        log_lines = (tmp_path / "m.csc1.log").read_text().strip().splitlines()
        assert len(log_lines) == 2 * 3  # 2 epochs x ceil(5/2) batches
        epoch, step, loss, ms = log_lines[0].split(",")
        assert (int(epoch), int(step)) == (0, 0)
        assert float(loss) > 0 and float(ms) > 0

    def test_missing_data_is_input_error(self, tmp_path, capsys):
        code = main(
            ["train", "--data", str(tmp_path / "nope"), "--epochs", "1", "--out",
             str(tmp_path / "m.csc1")]
        )
        assert "no dataset manifest" in assert_input_error(code, capsys)

    def test_init_checkpoint_hyper_mismatch(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "base.csc1"
        save_checkpoint(build_model(Rng(0), 2, 2, 4), ckpt)
        code = main(
            ["train", "--data", str(dataset), "--nc", "2", "--nd", "2", "--nf", "8",
             "--epochs", "1", "--out", str(tmp_path / "out.csc1"),
             "--init-checkpoint", str(ckpt)]
        )
        assert "do not match requested" in assert_input_error(code, capsys)

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--epochs", "-3"], "epochs must be >= 0"),
            (["--checkpoint-every", "-1"], "--checkpoint-every must be >= 0"),
            (["--acceleration", "0.5"], "acceleration must be >= 1"),
            (["--acceleration", "nan"], "acceleration must be >= 1"),
            (["--n-low", "-1"], "n_low must be >= 0"),
        ],
        ids=["epochs", "checkpoint-every", "acceleration", "nan-acceleration", "n-low"],
    )
    def test_bad_count_is_input_error_and_writes_nothing(self, dataset, tmp_path, capsys, flags, message):
        out = tmp_path / "run" / "m.csc1"
        code = main(
            ["train", "--data", str(dataset), "--nc", "1", "--nd", "2", "--nf", "2",
             "--epochs", "1", "--out", str(out), *flags]
        )
        assert message in assert_input_error(code, capsys)
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "mask_flags",
        [["--acceleration", "3", "--n-low", "8"], ["--acceleration", "100", "--n-low", "0"]],
        ids=["n-low-above-budget", "empty-budget"],
    )
    def test_mask_error_writes_nothing(self, tmp_path, capsys, mask_flags):
        # the line budget of a 16-line image is round(16/3) = 5 and round(16/100) = 0
        data = tmp_path / "data16"
        assert main(["generate", "--n", "3", "--size", "16", "--seed", "0", "--out", str(data)]) == 0
        capsys.readouterr()
        out = tmp_path / "run" / "m.csc1"
        code = main(
            ["train", "--data", str(data), "--nc", "1", "--nd", "2", "--nf", "2",
             "--epochs", "1", "--out", str(out), *mask_flags]
        )
        assert "line budget" in assert_input_error(code, capsys)
        assert not out.parent.exists()

    @pytest.mark.parametrize("workers", ["0", "x", "-1"])
    def test_bad_worker_count_is_input_error_and_writes_nothing(self, dataset, tmp_path, capsys, monkeypatch, workers):
        monkeypatch.setenv("CASCADE_RECON_THREADS", workers)
        out = tmp_path / "run" / "m.csc1"
        code = main(
            ["train", "--data", str(dataset), "--nc", "1", "--nd", "2", "--nf", "2",
             "--epochs", "1", "--out", str(out)]
        )
        assert "CASCADE_RECON_THREADS" in assert_input_error(code, capsys)
        assert not out.parent.exists()

    def test_divergence_exits_3(self, tmp_path, capsys):
        # a finite training image at the float32 limit overflows the forward
        # pass and drives the loss non-finite (a non-finite image is an input error)
        data = tmp_path / "bad_data"
        data.mkdir()
        broken = np.full((2, 32, 32), 3e38, dtype=np.float32)
        save_tensor(data / "broken.cxt", broken)
        (data / "manifest.txt").write_text("broken.cxt,train\n")
        code = main(
            ["train", "--data", str(data), "--nc", "1", "--nd", "2", "--nf", "4",
             "--epochs", "1", "--seed", "0", "--out", str(tmp_path / "d.csc1")]
        )
        assert code == 3
        # one line: no numpy overflow warning scrolls by before it
        err = capsys.readouterr().err
        assert err.startswith("training diverged: ") and err.count("\n") == 1 and err.endswith("\n")


class TestReconstruct:
    def test_zero_weight_model_returns_zero_filled(self, dataset, tmp_path):
        ckpt = tmp_path / "zero.csc1"
        save_checkpoint(zero_model(2, 2, 4), ckpt)
        img_path = read_manifest(dataset)[0][0]
        out = tmp_path / "recon"
        code = main(
            ["reconstruct", "--checkpoint", str(ckpt), "--image", str(img_path),
             "--mask-seed", "3", "--acceleration", "3", "--n-low", "4", "--out", str(out)]
        )
        assert code == 0
        x_u = load_image(out / "x_u.cxt")
        x_cnn = load_image(out / "x_cnn.cxt")
        assert np.max(np.abs(x_cnn.channels - x_u.channels)) < 1e-6
        assert load_tensor(out / "mask.cxt").shape == (32,)

    def test_full_sampling_recovers_input(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "zero.csc1"
        save_checkpoint(zero_model(2, 2, 4), ckpt)
        img_path = read_manifest(dataset)[0][0]
        out = tmp_path / "recon_full"
        code = main(
            ["reconstruct", "--checkpoint", str(ckpt), "--image", str(img_path),
             "--acceleration", "1", "--n-low", "4", "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "ms" in printed
        original = load_image(img_path)
        x_cnn = load_image(out / "x_cnn.cxt")
        assert np.max(np.abs(x_cnn.channels - original.channels)) < 1e-5

    def test_mask_file_roundtrip(self, dataset, tmp_path):
        ckpt = tmp_path / "zero.csc1"
        save_checkpoint(zero_model(1, 2, 4), ckpt)
        mask = generate_mask(Rng(8), 32, 32, 4.0, 4)
        mask_path = tmp_path / "mask.cxt"
        save_tensor(mask_path, mask.to_tensor())
        img_path = read_manifest(dataset)[0][0]
        out = tmp_path / "recon_mf"
        code = main(
            ["reconstruct", "--checkpoint", str(ckpt), "--image", str(img_path),
             "--mask-file", str(mask_path), "--out", str(out)]
        )
        assert code == 0
        assert np.array_equal(load_tensor(out / "mask.cxt"), mask.to_tensor())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_outputs_equal_library_reconstruct(self, dataset, tmp_path, dtype):
        model = build_model(Rng(3), 2, 3, 4, dtype=dtype)
        ckpt = tmp_path / "m.csc1"
        save_checkpoint(model, ckpt)
        img_path = read_manifest(dataset)[0][0]
        out = tmp_path / "recon"
        code = main(
            ["reconstruct", "--checkpoint", str(ckpt), "--image", str(img_path),
             "--mask-seed", "3", "--acceleration", "3", "--n-low", "4", "--out", str(out)]
        )
        assert code == 0
        meas = apply_encoding(load_image(img_path).astype(dtype), generate_mask(Rng(3), 32, 32, 3.0, 4))
        assert np.array_equal(load_image(out / "x_cnn.cxt").channels, reconstruct(model, meas).channels)
        assert np.array_equal(load_image(out / "x_u.cxt").channels, zero_filled(meas).channels)

    @pytest.mark.parametrize(
        "values",
        [np.full(32, np.nan), np.full(32, 0.5), np.zeros(32), np.ones(16)],
        ids=["nan", "half", "all-zero", "wrong-length"],
    )
    def test_bad_mask_file_is_input_error(self, dataset, tmp_path, capsys, values):
        ckpt = tmp_path / "zero.csc1"
        save_checkpoint(zero_model(1, 2, 4), ckpt)
        mask_path = tmp_path / "mask.cxt"
        save_tensor(mask_path, values.astype(np.float32))
        code = main(
            ["reconstruct", "--checkpoint", str(ckpt), "--image", str(read_manifest(dataset)[0][0]),
             "--mask-file", str(mask_path), "--out", str(tmp_path / "recon")]
        )
        assert_input_error(code, capsys)


class TestEvaluate:
    def test_zero_weight_model_matches_zero_filled_baseline(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "zero.csc1"
        save_checkpoint(zero_model(2, 2, 4), ckpt)
        report_path = tmp_path / "report.csv"
        code = main(
            ["evaluate", "--checkpoint", str(ckpt), "--data", str(dataset),
             "--split", "test", "--acceleration", "3", "--n-low", "4",
             "--mask-seed", "11", "--out-report", str(report_path)]
        )
        assert code == 0
        capsys.readouterr()
        lines = report_path.read_text().strip().splitlines()
        assert lines[0] == "image_id,mse,zero_filled_mse"
        for line in lines[1:]:
            _, mse, zf = line.split(",")
            assert float(mse) == pytest.approx(float(zf), rel=1e-5)

    def test_perfect_model_full_mask_zero_error(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "zero.csc1"
        save_checkpoint(zero_model(2, 2, 4), ckpt)
        code = main(
            ["evaluate", "--checkpoint", str(ckpt), "--data", str(dataset),
             "--split", "test", "--acceleration", "1", "--n-low", "4",
             "--mask-seed", "11"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean reconstruction time" in out
        mean_line = [l for l in out.splitlines() if l.startswith("mean (SD)")][0]
        assert float(mean_line.split()[2]) < 1e-12

    def test_error_maps_bit_exact(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "zero.csc1"
        save_checkpoint(zero_model(2, 2, 4), ckpt)
        maps_dir = tmp_path / "maps"
        code = main(
            ["evaluate", "--checkpoint", str(ckpt), "--data", str(dataset),
             "--split", "test", "--acceleration", "3", "--n-low", "4",
             "--mask-seed", "11", "--emit-error-maps", str(maps_dir)]
        )
        assert code == 0
        capsys.readouterr()
        pgms = sorted(maps_dir.glob("*_error_x5.pgm"))
        assert pgms
        stem = pgms[0].name.replace("_error_x5.pgm", "")
        for tag in ("original", "zero_filled", "recon"):
            assert (maps_dir / f"{stem}_{tag}.pgm").is_file()
        raw = pgms[0].read_bytes()
        assert raw.startswith(b"P5\n32 32\n255\n")
        payload = np.frombuffer(raw.split(b"\n255\n", 1)[1], dtype=np.uint8)

        # recompute the expected quantized map independently
        entries = [(p, s) for p, s in read_manifest(dataset) if s == "test"]
        img = load_image(entries[0][0])
        mask = generate_mask(Rng(11).child(0), 32, 32, 3.0, 4)
        x_u = zero_filled(apply_encoding(img, mask))
        err = np.hypot(*(x_u.channels - img.channels))
        scale = float(np.max(np.hypot(*img.channels)))
        expected = np.minimum(np.floor(np.clip(5.0 * err / scale, 0, 1) * 255.0 + 0.5), 255)
        assert np.array_equal(payload.reshape(32, 32), expected.astype(np.uint8))


class TestEvaluateParallel:
    def test_worker_pool_matches_single_worker(self, dataset, tmp_path, capsys, monkeypatch):
        ckpt = tmp_path / "m.csc1"
        save_checkpoint(build_model(Rng(3), 2, 2, 4), ckpt)
        args = ["evaluate", "--checkpoint", str(ckpt), "--data", str(dataset),
                "--split", "train", "--acceleration", "3", "--n-low", "4",
                "--mask-seed", "5"]
        reports = {}
        for workers in ("1", "3"):
            monkeypatch.setenv("CASCADE_RECON_THREADS", workers)
            path = tmp_path / f"r{workers}.csv"
            assert main(args + ["--out-report", str(path)]) == 0
            capsys.readouterr()
            reports[workers] = path.read_text()
        assert reports["1"] == reports["3"]
        assert (tmp_path / "r1.csv.txt").read_text().startswith("model:")

    @pytest.mark.parametrize("workers,on_caller", [("1", 5), ("2", 3), ("3", 2)])
    def test_caller_runs_every_workers_th_image(self, dataset, tmp_path, capsys, monkeypatch, workers, on_caller):
        threads = []
        forward = cli.cascade_mod.cascade_forward

        def spy(model, meas, **kwargs):
            threads.append(threading.current_thread())
            return forward(model, meas, **kwargs)

        monkeypatch.setattr(cli.cascade_mod, "cascade_forward", spy)
        monkeypatch.setenv("CASCADE_RECON_THREADS", workers)
        ckpt = tmp_path / "m.csc1"
        save_checkpoint(build_model(Rng(3), 1, 2, 4), ckpt)
        before = threading.active_count()
        code = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(dataset), "--split", "train",
                     "--acceleration", "3", "--n-low", "4"])
        assert code == 0
        capsys.readouterr()
        assert threading.active_count() == before
        assert len(threads) == 5
        assert sum(t is threading.main_thread() for t in threads) == on_caller

    def test_one_zero_fill_per_image(self, dataset, tmp_path, capsys, zero_filled_calls):
        ckpt = tmp_path / "m.csc1"
        save_checkpoint(build_model(Rng(3), 1, 2, 4), ckpt)
        code = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(dataset), "--split", "train",
                     "--acceleration", "3", "--n-low", "4"])
        assert code == 0
        capsys.readouterr()
        n_train = sum(s == "train" for _, s in read_manifest(dataset))
        assert len(zero_filled_calls) == n_train == 5

    def test_keeps_no_caches(self, dataset, tmp_path, capsys, monkeypatch):
        caches = []
        forward = cli.cascade_mod.cascade_forward

        def spy(model, meas, **kwargs):
            out, cache = forward(model, meas, **kwargs)
            caches.append(cache)
            return out, cache

        monkeypatch.setattr(cli.cascade_mod, "cascade_forward", spy)
        ckpt = tmp_path / "m.csc1"
        save_checkpoint(build_model(Rng(3), 2, 3, 4), ckpt)
        code = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(dataset), "--split", "train",
                     "--acceleration", "3", "--n-low", "4"])
        assert code == 0
        capsys.readouterr()
        assert len(caches) == 5 and all(c.stage_caches == [] for c in caches)

    @pytest.mark.parametrize("workers", ["abc", "0"])
    def test_bad_worker_count_is_input_error(self, dataset, tmp_path, capsys, monkeypatch, workers):
        ckpt = tmp_path / "zero.csc1"
        save_checkpoint(zero_model(1, 2, 4), ckpt)
        monkeypatch.setenv("CASCADE_RECON_THREADS", workers)
        code = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(dataset)])
        assert "CASCADE_RECON_THREADS" in assert_input_error(code, capsys)


class TestInputErrors:
    def test_malformed_checkpoint_raises_and_exits_2(self, dataset, tmp_path, capsys):
        path = tmp_path / "m.csc1"
        save_checkpoint(build_model(Rng(0), 1, 2, 2), path)
        raw = path.read_bytes()
        # every truncation, a 0xFF byte in the first tensor name (after the
        # 34-byte header and the name's u16 length), a first tensor whose
        # dims claim 2^31 x 2^31, a lambda-mode byte (offset 5) that is
        # neither 0 nor 1, a header with k=4 (offset 26) followed by the 4x4
        # kernels it names, and a finite-lambda header (mode 0) whose f64
        # value (offset 6) is 0, NaN or negative
        dims = raw.index(b"CXT1") + 6
        even = io.BytesIO()
        even.write(raw[:26] + struct.pack("<I", 4) + raw[30:34])
        for i in range(2):
            for name, shape in ((f"stage0.conv{i}.weight", (2, 2, 4, 4)), (f"stage0.conv{i}.bias", (2,))):
                even.write(struct.pack("<H", len(name)) + name.encode())
                write_tensor(even, np.zeros(shape, dtype=np.float32))
        cases = [raw[:n] for n in range(len(raw))] + [
            raw[:36] + b"\xff" + raw[37:],
            raw[:dims] + (2**31).to_bytes(4, "little") * 2 + raw[dims + 8:],
            raw[:5] + b"\x07" + raw[6:],
            even.getvalue(),
        ] + [raw[:5] + b"\x00" + struct.pack("<d", lam) + raw[14:] for lam in (0.0, math.nan, -1.0)]
        bad = tmp_path / "bad.csc1"
        for blob in cases:
            bad.write_bytes(blob)
            with pytest.raises(CheckpointFormatError, match="bad.csc1"):
                load_checkpoint(bad)
            code = main(
                ["reconstruct", "--checkpoint", str(bad), "--image",
                 str(read_manifest(dataset)[0][0]), "--out", str(tmp_path / "recon")]
            )
            assert_input_error(code, capsys)

    @pytest.mark.parametrize("command", ["reconstruct", "evaluate", "train"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_image_is_input_error(self, dataset, tmp_path, capsys, command, value):
        data = tmp_path / "data"
        data.mkdir()
        img = load_image(read_manifest(dataset)[0][0])
        img.channels[1, 5, 7] = value
        save_image(data / "phantom.cxt", img)
        (data / "manifest.txt").write_text("phantom.cxt,train\nphantom.cxt,test\n")
        ckpt = tmp_path / "zero.csc1"
        save_checkpoint(zero_model(1, 2, 4), ckpt)
        out = tmp_path / "recon"
        argv = {
            "reconstruct": ["reconstruct", "--checkpoint", str(ckpt), "--image",
                            str(data / "phantom.cxt"), "--out", str(out)],
            "evaluate": ["evaluate", "--checkpoint", str(ckpt), "--data", str(data)],
            "train": ["train", "--data", str(data), "--nc", "1", "--nd", "2", "--nf", "4",
                      "--epochs", "1", "--out", str(tmp_path / "m.csc1")],
        }[command]
        assert "phantom.cxt" in assert_input_error(main(argv), capsys)
        assert not (out / "x_cnn.cxt").exists()

    @pytest.mark.parametrize("command", ["reconstruct", "evaluate", "train"])
    def test_kernel_larger_than_image_is_input_error(self, tmp_path, capsys, command):
        # k=41 has p=20 >= 8: 26 of its 41 tap offsets per axis never touch an 8x8 image
        data = tmp_path / "data8"
        assert main(["generate", "--n", "3", "--size", "8", "--seed", "0", "--out", str(data)]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "k41.csc1"
        save_checkpoint(zero_model(1, 2, 2, k=41), ckpt)
        out = tmp_path / "out"
        mask_flags = ["--acceleration", "3", "--n-low", "2"]
        argv = {
            "reconstruct": ["reconstruct", "--checkpoint", str(ckpt), "--image",
                            str(read_manifest(data)[0][0]), "--out", str(out)],
            "evaluate": ["evaluate", "--checkpoint", str(ckpt), "--data", str(data), "--split", "train",
                         "--out-report", str(out / "report.csv")],
            "train": ["train", "--data", str(data), "--nc", "1", "--nd", "2", "--nf", "2", "--k", "41",
                      "--epochs", "1", "--out", str(out / "m.csc1")],
        }[command]
        assert "k=41" in assert_input_error(main(argv + mask_flags), capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "train", "gradcheck", "reconstruct", "evaluate"])
    def test_negative_seed_is_input_error_and_writes_nothing(self, dataset, tmp_path, capsys, command):
        ckpt = tmp_path / "zero.csc1"
        save_checkpoint(zero_model(1, 2, 4), ckpt)
        out = tmp_path / "out"
        argv = {
            "generate": ["generate", "--n", "3", "--size", "8", "--seed", "-1", "--out", str(out)],
            "train": ["train", "--data", str(dataset), "--nc", "1", "--nd", "2", "--nf", "2",
                      "--epochs", "1", "--seed", "-1", "--out", str(out / "m.csc1")],
            "gradcheck": ["gradcheck", "--seed", "-1"],
            "reconstruct": ["reconstruct", "--checkpoint", str(ckpt), "--image",
                            str(read_manifest(dataset)[0][0]), "--mask-seed", "-1", "--out", str(out)],
            "evaluate": ["evaluate", "--checkpoint", str(ckpt), "--data", str(dataset), "--mask-seed", "-1",
                         "--out-report", str(out / "report.csv"), "--emit-error-maps", str(out / "maps")],
        }[command]
        assert "seed must be >= 0, got -1" in assert_input_error(main(argv), capsys)
        assert not out.exists()

    def test_non_finite_checkpoint_is_input_error(self, dataset, tmp_path, capsys):
        model = build_model(Rng(0), 1, 2, 2)
        model.stages[0].layers[0].bias[1] = np.nan
        ckpt = tmp_path / "nan.csc1"
        save_checkpoint(model, ckpt)
        with pytest.raises(CheckpointFormatError, match="stage0.conv0.bias"):
            load_checkpoint(ckpt)
        code = main(
            ["reconstruct", "--checkpoint", str(ckpt), "--image",
             str(read_manifest(dataset)[0][0]), "--out", str(tmp_path / "recon")]
        )
        assert "stage0.conv0.bias" in assert_input_error(code, capsys)

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize(
        "manifest, names",
        [
            (b"phantom.cxt,train\nphantom.cxt\n", "manifest.txt:2:"),
            (b"missing.cxt,train\nmissing.cxt,test\n", "missing.cxt"),
            (b"\xff\n", "manifest.txt"),
        ],
        ids=["no-split", "missing-file", "not-utf8"],
    )
    def test_bad_manifest_is_input_error(self, dataset, tmp_path, capsys, command, manifest, names):
        data = tmp_path / "data"
        data.mkdir()
        (data / "phantom.cxt").write_bytes(read_manifest(dataset)[0][0].read_bytes())
        (data / "manifest.txt").write_bytes(manifest)
        ckpt = tmp_path / "zero.csc1"
        save_checkpoint(zero_model(1, 2, 4), ckpt)
        if command == "train":
            argv = ["train", "--data", str(data), "--nc", "1", "--nd", "2", "--nf", "4",
                    "--epochs", "1", "--out", str(tmp_path / "m.csc1")]
        else:
            argv = ["evaluate", "--checkpoint", str(ckpt), "--data", str(data)]
        assert names in assert_input_error(main(argv), capsys)

    @pytest.mark.parametrize("command", ["reconstruct", "evaluate", "train"])
    def test_empty_line_budget_is_input_error(self, dataset, tmp_path, capsys, command):
        # round(32 / 100) == 0 lines: nothing would be measured
        ckpt = tmp_path / "zero.csc1"
        save_checkpoint(zero_model(1, 2, 4), ckpt)
        out = tmp_path / "out"
        mask_flags = ["--acceleration", "100", "--n-low", "0"]
        argv = {
            "reconstruct": ["reconstruct", "--checkpoint", str(ckpt), "--image",
                            str(read_manifest(dataset)[0][0]), "--out", str(out)],
            "evaluate": ["evaluate", "--checkpoint", str(ckpt), "--data", str(dataset),
                         "--out-report", str(out / "report.csv")],
            "train": ["train", "--data", str(dataset), "--nc", "1", "--nd", "2", "--nf", "2",
                      "--epochs", "1", "--out", str(out / "m.csc1")],
        }[command]
        assert "samples no line" in assert_input_error(main(argv + mask_flags), capsys)
        assert not [p for ext in ("cxt", "csv", "csc1") for p in out.glob(f"*.{ext}")]


class TestByteCorruption:
    """Any one byte of a CSC1 checkpoint or a CXT1 image set to any value:
    loading raises a typed error or returns finite arrays, and ``reconstruct``
    exits 0 or 2 without raising."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("corrupt")
        save_checkpoint(build_model(Rng(0), 1, 2, 2), d / "m.csc1")
        save_image(d / "img.cxt", ComplexImage(Rng(1).gen.standard_normal((2, 8, 8)).astype(np.float32)))
        return d

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(name=st.sampled_from(["m.csc1", "img.cxt"]), data=st.data())
    def test_single_byte_overwrite(self, files, name, data):
        raw = bytearray((files / name).read_bytes())
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        bad = files / f"bad_{name}"
        bad.write_bytes(raw)
        is_ckpt = name == "m.csc1"
        try:
            arrays = load_checkpoint(bad).parameters() if is_ckpt else [load_image(bad).channels]
        except (CheckpointFormatError, InvalidParameterError, InvalidShapeError):
            pass
        else:
            assert all(np.isfinite(a).all() for a in arrays)
        ckpt, img = (bad, files / "img.cxt") if is_ckpt else (files / "m.csc1", bad)
        code = main(
            ["reconstruct", "--checkpoint", str(ckpt), "--image", str(img), "--n-low", "2",
             "--out", str(files / "recon")]
        )
        assert code in (0, 2)


class TestCheckpointEvery:
    def test_intermediate_checkpoints_written(self, dataset, tmp_path):
        ckpt = tmp_path / "m.csc1"
        code = main(
            ["train", "--data", str(dataset), "--acceleration", "3", "--n-low", "4",
             "--nc", "1", "--nd", "2", "--nf", "4", "--epochs", "2",
             "--batch-size", "8", "--checkpoint-every", "1", "--seed", "2",
             "--out", str(ckpt)]
        )
        assert code == 0
        assert (tmp_path / "m.csc1.epoch1").is_file()
        assert (tmp_path / "m.csc1.epoch2").is_file()
        # the last periodic checkpoint matches the final one
        assert (tmp_path / "m.csc1.epoch2").read_bytes() == ckpt.read_bytes()


class TestGradcheckCommand:
    def test_default_run_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7

    @pytest.mark.parametrize("component", list(THRESHOLDS))
    def test_corrupted_component_detected(self, component, capsys):
        assert main(["gradcheck"]) == 0
        clean = capsys.readouterr().out.splitlines()
        assert main(["gradcheck", "--corrupt", component]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"gradient check FAILED: {component}"]
        lines = captured.out.splitlines()
        assert len(lines) == len(clean) == len(THRESHOLDS)
        for line, clean_line in zip(lines, clean):
            if line.split()[0] == component:
                assert line.endswith("FAIL"), line
            else:
                assert line == clean_line

    def test_unknown_corrupt_is_input_error(self, capsys):
        assert "'bogus'" in assert_input_error(main(["gradcheck", "--corrupt", "bogus"]), capsys)

    def test_results_follow_threshold_order(self):
        assert [r.component for r in run_gradcheck()] == list(THRESHOLDS)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_consistent_across_seeds(self, seed, capsys):
        assert main(["gradcheck", "--seed", str(seed)]) == 0
        capsys.readouterr()


class TestReportArithmetic:
    def test_mean_and_sd_recomputable(self):
        rng = Rng(0)
        mse = rng.gen.uniform(0.001, 0.01, 7).tolist()
        report = EvalReport(
            model_id="m", acceleration=3.0, image_ids=[f"i{k}" for k in range(7)],
            mse=mse, zero_filled_mse=mse, recon_ms=[1.0] * 7,
        )
        assert abs(report.mean - sum(mse) / 7) < 1e-12
        assert abs(report.sd - math.sqrt(sum((v - report.mean) ** 2 for v in mse) / 7)) < 1e-12

    def test_quantization_rule(self):
        vals = np.array([-0.1, 0.0, 0.5, 0.999, 1.0, 2.0])
        assert _quantize_unit(vals).tolist() == [0, 0, 128, 255, 255, 255]
