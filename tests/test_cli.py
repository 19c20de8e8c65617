import filecmp
import hashlib
import io
import math
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from mricascade import (
    CheckpointFormatError,
    ComplexImage,
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

    def test_manifest_skips_blank_and_comment_lines(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("# name,split\n\n  \na.cxt,train\n  # b.cxt,test\nc.cxt,test\n")
        assert read_manifest(tmp_path) == [(tmp_path / "a.cxt", "train"), (tmp_path / "c.cxt", "test")]

    @pytest.mark.parametrize("size", ["7", "2"])
    def test_bad_size_is_usage_error_and_writes_nothing(self, tmp_path, capsys, size):
        out = tmp_path / "D"
        code = main(["generate", "--n", "1", "--size", size, "--out", str(out)])
        assert "--size must be even and >= 4" in assert_input_error(code, capsys)
        assert not out.exists()

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

    def test_adam_overflow_exits_3_and_writes_no_checkpoint(self, tmp_path, capsys):
        # a finite but huge weight squares past float32 in Adam's second
        # moment, which leaves NaN weights that load_checkpoint would refuse
        data = tmp_path / "data"
        assert main(["generate", "--n", "2", "--size", "16", "--seed", "1", "--out", str(data)]) == 0
        model = build_model(Rng(0), 1, 2, 2)
        model.stages[0].layers[1].weights[0, 0, 1, 1] = 3e20
        save_checkpoint(model, tmp_path / "huge.csc1")
        capsys.readouterr()
        out = tmp_path / "run" / "m.csc1"
        code = main(
            ["train", "--data", str(data), "--nc", "1", "--nd", "2", "--nf", "2", "--epochs", "1",
             "--batch-size", "1", "--n-low", "2", "--init-checkpoint", str(tmp_path / "huge.csc1"),
             "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("training diverged: non-finite parameter"), err
        for key in ("'epoch'", "'step'", "'loss'", "'param_max'"):
            assert key in err[0]
        assert not out.exists()


    def test_directory_out_is_input_error_and_trains_nothing(self, dataset, tmp_path, capsys, monkeypatch):
        # a directory cannot take the checkpoint's rename; that is found
        # before any epoch runs or the log is opened
        epochs = []
        monkeypatch.setattr(cli, "train_epoch", lambda *args, **kwargs: epochs.append(args))
        out = tmp_path / "outdir"
        out.mkdir()
        code = main(
            ["train", "--data", str(dataset), "--nc", "1", "--nd", "2", "--nf", "2", "--epochs", "2",
             "--batch-size", "1", "--n-low", "2", "--out", str(out)]
        )
        assert assert_input_error(code, capsys) == f"error: --out is a directory: {out}"
        assert epochs == [] and list(out.iterdir()) == []
        assert not (tmp_path / "outdir.log").exists()


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
        assert assert_input_error(code, capsys).startswith(f"error: {mask_path}: ")


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


    @pytest.mark.parametrize("command", ["evaluate", "reconstruct"])
    def test_casts_each_loaded_image_once(self, dataset, tmp_path, capsys, monkeypatch, command):
        # the cast image is both what is encoded and what evaluate scores against
        loaded, cast = [], []
        load, astype = cli.load_image, ComplexImage.astype

        def load_spy(path):
            loaded.append(load(path))
            return loaded[-1]

        def astype_spy(img, dtype):
            cast.append(img)
            return astype(img, dtype)

        monkeypatch.setattr(cli, "load_image", load_spy)
        monkeypatch.setattr(ComplexImage, "astype", astype_spy)
        ckpt = tmp_path / "m.csc1"
        save_checkpoint(build_model(Rng(3), 1, 2, 4), ckpt)
        argv = {
            "evaluate": ["evaluate", "--checkpoint", str(ckpt), "--data", str(dataset), "--split", "train",
                         "--n-low", "4", "--emit-error-maps", str(tmp_path / "maps")],
            "reconstruct": ["reconstruct", "--checkpoint", str(ckpt), "--image", str(read_manifest(dataset)[0][0]),
                            "--n-low", "4", "--out", str(tmp_path / "recon")],
        }[command]
        assert main(argv) == 0
        capsys.readouterr()
        assert len(loaded) == (5 if command == "evaluate" else 1)
        assert [sum(c is img for c in cast) for img in loaded] == [1] * len(loaded)

    def test_unmakeable_maps_directory_writes_no_report(self, dataset, tmp_path, capsys):
        # every output directory is made before the first file is written
        ckpt = tmp_path / "zero.csc1"
        save_checkpoint(zero_model(1, 2, 4), ckpt)
        maps = tmp_path / "maps_is_file"
        maps.write_text("")
        report = tmp_path / "rep" / "r.csv"
        code = main(
            ["evaluate", "--checkpoint", str(ckpt), "--data", str(dataset), "--n-low", "4",
             "--out-report", str(report), "--emit-error-maps", str(maps)]
        )
        assert str(maps) in assert_input_error(code, capsys)
        assert list(report.parent.iterdir()) == []


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


class TestEvaluateStreams:
    """Each evaluate task loads, masks, reconstructs and scores one image."""

    @staticmethod
    def split_of(dataset, root, n):
        """A dataset directory whose test split is ``n`` copies of the
        fixture's images, cycled, named img_00.cxt onwards."""
        root.mkdir()
        sources = [p for p, _ in read_manifest(dataset)]
        names = [f"img_{j:02d}.cxt" for j in range(n)]
        for j, name in enumerate(names):
            (root / name).write_bytes(sources[j % len(sources)].read_bytes())
        (root / "manifest.txt").write_text("".join(f"{name},test\n" for name in names))
        return root

    def test_report_only_memory_does_not_grow_with_the_split(self, dataset, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CASCADE_RECON_THREADS", "1")
        ckpt = tmp_path / "m.csc1"
        save_checkpoint(build_model(Rng(3), 1, 2, 4), ckpt)
        splits = {n: self.split_of(dataset, tmp_path / f"data{n}", n) for n in (2, 24)}

        def peak(n):
            tracemalloc.start()
            try:
                assert main(["evaluate", "--checkpoint", str(ckpt), "--data", str(splits[n]), "--n-low", "4",
                             "--out-report", str(tmp_path / f"r{n}.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        peak(2)  # fills the DFT-matrix cache, so neither measured run pays for it
        few, many = peak(2), peak(24)
        # a 32x32 image with its mask, operator and reconstructions holds
        # about 38 KB; the 22 more images may add a tenth of that each
        assert many - few < 22 * 4096, (few, many)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_overflow_in_image_0_is_named_before_a_later_malformed_image(self, dataset, tmp_path, capsys,
                                                                          monkeypatch, workers):
        # the first failing image in item order is named, however it failed
        monkeypatch.setenv("CASCADE_RECON_THREADS", workers)
        data = self.split_of(dataset, tmp_path / "data", 2)
        first, malformed = data / "img_00.cxt", data / "img_01.cxt"
        img = load_image(first).channels.copy()
        img[0] = 3e38
        save_image(first, ComplexImage(img))
        malformed.write_bytes(malformed.read_bytes()[:-1])
        ckpt = tmp_path / "zero.csc1"
        save_checkpoint(zero_model(1, 2, 4), ckpt)
        out = tmp_path / "out"
        code = main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data), "--n-low", "4",
                     "--out-report", str(out / "report.csv"), "--emit-error-maps", str(out / "maps")])
        line = assert_input_error(code, capsys)
        assert line == f"error: {ckpt} on {first}: the zero-filled image overflowed to non-finite values"
        assert not out.exists()


class TestInputErrors:
    def test_malformed_checkpoint_raises_and_exits_2(self, dataset, tmp_path, capsys):
        path = tmp_path / "m.csc1"
        save_checkpoint(build_model(Rng(0), 1, 2, 2), path)
        raw = path.read_bytes()
        # every truncation, a 0xFF byte in the first tensor name (after the
        # 34-byte header and the name's u16 length), a first tensor whose
        # dims claim 2^31 x 2^31, a lambda-mode byte (offset 5) that is
        # neither 0 nor 1, a header with k=4 (offset 26) followed by the 4x4
        # kernels it names, a finite-lambda header (mode 0) whose f64 value
        # (offset 6) is 0, NaN or negative, a byte after the last tensor, and
        # float32 tensors of the first layer with float64 ones of the second
        dims = raw.index(b"CXT1") + 6
        even, mixed = io.BytesIO(), io.BytesIO()
        even.write(raw[:26] + struct.pack("<I", 4) + raw[30:34])
        mixed.write(raw[:34])
        for i, layer in enumerate(load_checkpoint(path).stages[0].layers):
            for name, arr in ((f"stage0.conv{i}.weight", layer.weights), (f"stage0.conv{i}.bias", layer.bias)):
                record = struct.pack("<H", len(name)) + name.encode()
                even.write(record)
                write_tensor(even, np.zeros((2, 2, 4, 4) if arr.ndim == 4 else 2, np.float32))
                mixed.write(record)
                write_tensor(mixed, arr.astype(np.float64 if i else np.float32))
        cases = [raw[:n] for n in range(len(raw))] + [
            raw[:36] + b"\xff" + raw[37:],
            raw[:dims] + (2**31).to_bytes(4, "little") * 2 + raw[dims + 8:],
            raw[:5] + b"\x07" + raw[6:],
            even.getvalue(),
            raw + b"\x00",
            mixed.getvalue(),
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

    @pytest.mark.parametrize("command, name", [("generate", "make_dataset"), ("gradcheck", "run_gradcheck")])
    def test_oversized_input_is_input_error_and_writes_nothing(self, tmp_path, capsys, monkeypatch, command, name):
        # as numpy raises for --size 100000, without allocating it
        def oversized(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000, 2)")

        monkeypatch.setattr(cli, name, oversized)
        out = tmp_path / "out"
        argv = {
            "generate": ["generate", "--n", "1", "--size", "100000", "--out", str(out)],
            "gradcheck": ["gradcheck", "--size", "100000"],
        }[command]
        line = assert_input_error(main(argv), capsys)
        assert line == "error: out of memory: Unable to allocate 74.5 GiB for an array with shape (100000, 100000, 2)"
        assert not out.exists()

    def test_non_finite_checkpoint_is_input_error(self, dataset, tmp_path, capsys):
        # save_checkpoint refuses a NaN, so it goes into the file's bytes
        model = build_model(Rng(0), 1, 2, 2)
        model.stages[0].layers[0].bias[1] = 1234.5
        ckpt = tmp_path / "nan.csc1"
        save_checkpoint(model, ckpt)
        raw, marker = ckpt.read_bytes(), np.float32(1234.5).tobytes()
        assert raw.count(marker) == 1
        ckpt.write_bytes(raw.replace(marker, np.float32(np.nan).tobytes()))
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
            (b"phan\x00tom.cxt,train\nphan\x00tom.cxt,test\n", "manifest.txt:1:"),
            (b"phantom.cxt,validation\n", "is empty"),
            (None, "no dataset manifest"),
        ],
        ids=["no-split", "missing-file", "not-utf8", "nul-byte", "empty-split", "no-manifest"],
    )
    def test_bad_manifest_is_input_error(self, dataset, tmp_path, capsys, command, manifest, names):
        data = tmp_path / "data"
        data.mkdir()
        (data / "phantom.cxt").write_bytes(read_manifest(dataset)[0][0].read_bytes())
        if manifest is not None:
            (data / "manifest.txt").write_bytes(manifest)
        ckpt = tmp_path / "zero.csc1"
        save_checkpoint(zero_model(1, 2, 4), ckpt)
        if command == "train":
            argv = ["train", "--data", str(data), "--nc", "1", "--nd", "2", "--nf", "4",
                    "--epochs", "1", "--out", str(tmp_path / "m.csc1")]
        else:
            argv = ["evaluate", "--checkpoint", str(ckpt), "--data", str(data)]
        assert names in assert_input_error(main(argv), capsys)

    @pytest.mark.parametrize("command", ["reconstruct", "mask-file", "evaluate", "train"])
    @pytest.mark.parametrize(
        "corrupt",
        [lambda raw: raw[:-1], lambda raw: raw[:4] + b"\x07" + raw[5:], lambda raw: raw + b"\x00"],
        ids=["truncated", "precision-code-7", "trailing-byte"],
    )
    def test_malformed_cxt1_file_is_input_error_naming_it(self, dataset, tmp_path, capsys, command, corrupt):
        data = tmp_path / "data"
        data.mkdir()
        (data / "phantom.cxt").write_bytes(read_manifest(dataset)[0][0].read_bytes())
        (data / "manifest.txt").write_text("phantom.cxt,train\nphantom.cxt,test\n")
        save_tensor(data / "mask.cxt", generate_mask(Rng(8), 32, 32, 4.0, 4).to_tensor())
        bad = data / ("mask.cxt" if command == "mask-file" else "phantom.cxt")
        bad.write_bytes(corrupt(bad.read_bytes()))
        ckpt = tmp_path / "zero.csc1"
        save_checkpoint(zero_model(1, 2, 4), ckpt)
        out = tmp_path / "out"
        reconstruct = ["reconstruct", "--checkpoint", str(ckpt), "--image", str(data / "phantom.cxt"),
                       "--out", str(out)]
        argv = {
            "reconstruct": reconstruct,
            "mask-file": reconstruct + ["--mask-file", str(data / "mask.cxt")],
            "evaluate": ["evaluate", "--checkpoint", str(ckpt), "--data", str(data),
                         "--out-report", str(out / "report.csv")],
            "train": ["train", "--data", str(data), "--nc", "1", "--nd", "2", "--nf", "4",
                      "--epochs", "1", "--out", str(out / "m.csc1")],
        }[command]
        assert assert_input_error(main(argv), capsys).startswith(f"error: {bad}: ")
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", ["reconstruct", "evaluate"])
    @pytest.mark.parametrize("part", ["zero-filled image", "reconstruction"])
    def test_overflow_is_input_error_naming_both_files(self, dataset, tmp_path, capsys, monkeypatch,
                                                       command, part, workers):
        # finite inputs whose arithmetic overflows float32: a real channel of
        # 3e38 overflows the encoding's sums, a 3e38 weight the first block
        monkeypatch.setenv("CASCADE_RECON_THREADS", workers)
        model = build_model(Rng(0), 1, 2, 2)
        paths = [p for p, s in read_manifest(dataset) if s == "train"]
        data = tmp_path / "data"
        data.mkdir()
        for p in paths:
            save_image(data / p.name, load_image(p))
        (data / "manifest.txt").write_text("".join(f"{p.name},train\n" for p in paths))
        # a huge weight overflows every image, and evaluate names the first
        bad = data / paths[0 if part == "reconstruction" else 1].name
        if part == "reconstruction":
            model.stages[0].layers[0].weights[0, 0, 1, 1] = 3e38
        else:
            img = load_image(bad).channels.copy()
            img[0] = 3e38
            save_image(bad, ComplexImage(img))
        ckpt = tmp_path / "m.csc1"
        save_checkpoint(model, ckpt)
        out = tmp_path / "out"
        argv = {
            "reconstruct": ["reconstruct", "--checkpoint", str(ckpt), "--image", str(bad), "--out", str(out)],
            "evaluate": ["evaluate", "--checkpoint", str(ckpt), "--data", str(data), "--split", "train",
                         "--out-report", str(out / "report.csv"), "--emit-error-maps", str(out / "maps")],
        }[command]
        line = assert_input_error(main(argv), capsys)
        assert line == f"error: {ckpt} on {bad}: the {part} overflowed to non-finite values"
        assert not out.exists()

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
        report = EvalReport(model_id="m", acceleration=3.0, rows=[(f"i{k}", v, v, 1.0) for k, v in enumerate(mse)])
        line = next(t for t in report.table_text().splitlines() if t.startswith("mean (SD): "))
        mean, sd = (float(v) for v in line.removeprefix("mean (SD): ").rstrip(")").split(" ("))
        want = sum(mse) / 7
        # the table prints 7 significant digits
        assert mean == pytest.approx(want, rel=1e-6)
        assert sd == pytest.approx(math.sqrt(sum((v - want) ** 2 for v in mse) / 7), rel=1e-6)

    def test_report_text_pinned(self):
        # fixed numbers, so the pin does not depend on the BLAS or the cascade
        report = EvalReport(model_id="m.csc1", acceleration=4.0, rows=[
            ("phantom_000", 1.25e-3, 4.0e-3, 10.0),
            ("phantom_007", 3.5e-4, 5.5e-3, 12.5),
            ("phantom_011", 2.0e-3, 6.25e-3, 11.0),
        ])
        assert report.csv_text() == (
            "image_id,mse,zero_filled_mse\n"
            "phantom_000,1.2500000000e-03,4.0000000000e-03\n"
            "phantom_007,3.5000000000e-04,5.5000000000e-03\n"
            "phantom_011,2.0000000000e-03,6.2500000000e-03\n"
        )
        assert report.table_text() == (
            "model: m.csc1\n"
            "acceleration: 4\n"
            "image_id                            mse  zero_filled_mse\n"
            "phantom_000                1.250000e-03     4.000000e-03\n"
            "phantom_007                3.500000e-04     5.500000e-03\n"
            "phantom_011                2.000000e-03     6.250000e-03\n"
            "mean (SD): 1.200000e-03 (6.745369e-04)\n"
            "zero-filled mean: 5.250000e-03\n"
            "mean reconstruction time: 11.17 ms\n"
        )

    def test_quantization_rule(self):
        vals = np.array([-0.1, 0.0, 0.5, 0.999, 1.0, 2.0])
        assert _quantize_unit(vals).tolist() == [0, 0, 128, 255, 255, 255]
