"""Acceptance suite: every criterion as one test, at its stated tolerance.

The desk-scale experiment (dataset generation, 3x training, 6x fine-tuning,
evaluations, and the determinism re-run) executes once per session through
the real command-line interface; the criteria assert on its artifacts. Each
test prints one PASS line once its assertions hold (visible with -s / -rP).
"""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mricascade as mc
from mricascade.gradcheck import run_gradcheck

from oracles import naive_dft2

DESK = dict(n_c=3, n_d=3, n_f=16)


# the package root this test process imported, so the CLI subprocess runs
# the same checkout whether or not PYTHONPATH was set
SRC = str(Path(mc.__file__).resolve().parents[1])


def run_cli(*args):
    """Run the CLI in a fresh process; returns (exit_code, stdout, seconds)."""
    pythonpath = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "mricascade", *map(str, args)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    elapsed = time.perf_counter() - t0
    return proc.returncode, proc.stdout + proc.stderr, elapsed


def read_report(path):
    rows = Path(path).read_text().strip().splitlines()[1:]
    mse = [float(r.split(",")[1]) for r in rows]
    zf = [float(r.split(",")[2]) for r in rows]
    return float(np.mean(mse)), float(np.mean(zf))


def last_epoch_mean_loss(log_path):
    lines = Path(log_path).read_text().strip().splitlines()
    last_epoch = lines[-1].split(",")[0]
    losses = [float(l.split(",")[2]) for l in lines if l.split(",")[0] == last_epoch]
    return float(np.mean(losses))


def report(criterion, detail):
    print(f"[criterion {criterion}] PASS: {detail}")


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    """Generate data, train at 3x, fine-tune at 6x, evaluate, re-run for
    determinism. Fails the session early if any command exits nonzero."""
    root = tmp_path_factory.mktemp("desk")
    data = root / "data"
    ckpt3, ckpt3b, ckpt6 = root / "c3.csc1", root / "c3b.csc1", root / "c6.csc1"

    def cli_ok(*args):
        code, out, elapsed = run_cli(*args)
        if code != 0:
            pytest.fail(f"command {args[0]} exited {code}:\n{out}")
        return out, elapsed

    cli_ok("generate", "--n", 10, "--size", 64, "--seed", 11, "--out", data)

    train_flags = [
        "--data", data, "--n-low", 8, "--nc", DESK["n_c"], "--nd", DESK["n_d"],
        "--nf", DESK["n_f"], "--epochs", 200, "--batch-size", 1, "--no-augment",
        "--seed", 0,
    ]
    _, train_seconds = cli_ok("train", "--acceleration", 3, *train_flags, "--out", ckpt3)
    eval3_train_out, _ = cli_ok(
        "evaluate", "--checkpoint", ckpt3, "--data", data, "--split", "train",
        "--acceleration", 3, "--n-low", 8, "--mask-seed", 42,
        "--out-report", root / "r3_train.csv",
    )
    eval3_test_out, _ = cli_ok(
        "evaluate", "--checkpoint", ckpt3, "--data", data, "--split", "test",
        "--acceleration", 3, "--n-low", 8, "--mask-seed", 42,
        "--out-report", root / "r3_test.csv",
    )
    # repeated flags: argparse keeps the last occurrence, so --epochs 50 wins
    cli_ok(
        "train", "--acceleration", 6, *train_flags, "--epochs", 50,
        "--init-checkpoint", ckpt3, "--out", ckpt6,
    )
    cli_ok(
        "evaluate", "--checkpoint", ckpt6, "--data", data, "--split", "test",
        "--acceleration", 6, "--n-low", 8, "--mask-seed", 42,
        "--out-report", root / "r6_test.csv",
    )
    # identical re-run for the determinism criterion
    cli_ok("train", "--acceleration", 3, *train_flags, "--out", ckpt3b)

    return {
        "root": root,
        "data": data,
        "ckpt3": ckpt3,
        "ckpt3b": ckpt3b,
        "ckpt6": ckpt6,
        "train_seconds": train_seconds,
        "eval3_train_out": eval3_train_out,
        "eval3_test_out": eval3_test_out,
    }


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    results = run_gradcheck(seed=0, size=16, n_c=2, n_d=3, n_f=4)
    elapsed = time.perf_counter() - t0
    by_name = {r.component: r for r in results}
    for name in ("conv_input", "conv_weight", "conv_bias", "relu", "mse_loss"):
        assert by_name[name].max_error < 1e-5, by_name[name]
    assert by_name["dclayer"].max_error < 1e-7, by_name["dclayer"]
    assert by_name["cascade_params"].max_error < 1e-4, by_name["cascade_params"]
    assert elapsed < 60.0
    worst = max(r.max_error for r in results)
    report(1, f"all backward passes within tolerance (worst {worst:.2e}) in {elapsed:.1f}s")


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 1e-4)])
def test_criterion_2_hard_data_consistency(dtype, tol):
    t0 = time.perf_counter()
    model = mc.build_model(mc.Rng(900), n_c=2, n_d=3, n_f=6, dtype=dtype)
    worst = 0.0
    for i in range(100):
        rng = mc.Rng(1000 + i)
        img = mc.ComplexImage(rng.gen.standard_normal((2, 32, 32)).astype(dtype))
        mask = mc.generate_mask(rng.child(1), 32, 32, acceleration=3.0, n_low=4)
        meas = mc.apply_encoding(img, mask)
        out, _ = mc.cascade_forward(model, meas)
        k_out = mc.fft2(out).to_complex()
        k_meas = meas.kspace.to_complex()
        on = mask.phase_lines
        worst = max(worst, float(np.max(np.abs(k_out[on] - k_meas[on]))))
    elapsed = time.perf_counter() - t0
    assert worst < tol
    assert elapsed < 30.0
    report(2, f"{np.dtype(dtype).name}: max |k-space mismatch| {worst:.2e} < {tol:g} on 100 pairs")


def test_criterion_3_dft_unitarity_and_oracle():
    t0 = time.perf_counter()
    rng = mc.Rng(2024)
    img = mc.ComplexImage(rng.gen.standard_normal((2, 8, 8)))
    ratio = mc.complex_norm_sq(mc.fft2(img)) / mc.complex_norm_sq(img)
    assert abs(ratio - 1.0) < 1e-12
    worst = 0.0
    for n in (4, 8):
        x = mc.ComplexImage(rng.gen.standard_normal((2, n, n)))
        got = mc.fft2(x).to_complex()
        expect = naive_dft2(x.to_complex())
        scale = float(np.max(np.abs(expect)))
        worst = max(worst, float(np.max(np.abs(got - expect))) / scale)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 5.0
    report(3, f"Parseval ratio off by {abs(ratio - 1):.1e}; oracle gap {worst:.1e} in {elapsed:.2f}s")


def test_criterion_4_zeroed_network_identity():
    rng = mc.Rng(55)
    truth = mc.make_phantom(mc.PhantomSpec(height=64, width=64, seed=8), dtype=np.float64)
    mask = mc.generate_mask(rng, 64, 64, 3.0, 8)
    meas = mc.apply_encoding(truth, mask)
    x_u = mc.zero_filled(meas)
    model = mc.zero_model(DESK["n_c"], DESK["n_d"], DESK["n_f"], dtype=np.float64)
    out, _ = mc.cascade_forward(model, meas)
    gap = float(np.max(np.abs(out.channels - x_u.channels)))
    assert gap < 1e-12  # float64 roundoff only
    report(4, f"all-zero parameters reproduce the zero-filled input (gap {gap:.1e})")


def epoch_mean_loss(log_path, epoch):
    lines = Path(log_path).read_text().strip().splitlines()
    losses = [float(l.split(",")[2]) for l in lines if int(l.split(",")[0]) == epoch]
    return float(np.mean(losses))


def test_criterion_5_desk_scale_quality(desk_run):
    mse_train, zf_train = read_report(desk_run["root"] / "r3_train.csv")
    mse_test, zf_test = read_report(desk_run["root"] / "r3_test.csv")
    assert desk_run["train_seconds"] < 900.0
    assert mse_train < 0.5 * zf_train
    assert mse_test < 0.9 * zf_test
    # the run is genuinely learning, not coasting: epoch 50 beats epoch 1
    log = Path(str(desk_run["ckpt3"]) + ".log")
    assert epoch_mean_loss(log, 49) < epoch_mean_loss(log, 0)
    report(
        5,
        f"train MSE {mse_train:.2e} = {mse_train / zf_train:.2f}x zero-filled (< 0.5), "
        f"test {mse_test / zf_test:.2f}x (< 0.9), trained in {desk_run['train_seconds']:.0f}s",
    )


def test_criterion_6_acceleration_monotonicity(desk_run):
    mse3, _ = read_report(desk_run["root"] / "r3_test.csv")
    mse6, _ = read_report(desk_run["root"] / "r6_test.csv")
    assert mse6 > mse3
    report(6, f"test MSE rises with acceleration: {mse6:.2e} (6x) > {mse3:.2e} (3x)")


def test_criterion_7_reconstruction_latency(desk_run):
    from mricascade.cli import read_manifest

    test_images = [p for p, s in read_manifest(desk_run["data"]) if s == "test"]
    code, out, _ = run_cli(
        "reconstruct", "--checkpoint", desk_run["ckpt3"], "--image", test_images[0],
        "--mask-seed", 42, "--acceleration", 3, "--n-low", 8,
        "--out", desk_run["root"] / "recon",
    )
    assert code == 0
    match = re.search(r"took ([0-9.]+) ms", out)
    assert match, out
    ms = float(match.group(1))
    assert ms < 1000.0
    # the evaluation output reports the measured time as well
    assert "mean reconstruction time" in desk_run["eval3_test_out"]
    report(7, f"single-image reconstruction in {ms:.1f} ms (< 1000 ms)")


def test_criterion_8_determinism(desk_run):
    loss_a = last_epoch_mean_loss(Path(str(desk_run["ckpt3"]) + ".log"))
    loss_b = last_epoch_mean_loss(Path(str(desk_run["ckpt3b"]) + ".log"))
    rel = abs(loss_a - loss_b) / abs(loss_a)
    assert rel < 1e-6
    checkpoints_equal = (
        Path(desk_run["ckpt3"]).read_bytes() == Path(desk_run["ckpt3b"]).read_bytes()
    )
    report(
        8,
        f"re-run reproduces final loss {loss_a:.6e} (rel diff {rel:.1e}); "
        f"checkpoints byte-identical: {checkpoints_equal}",
    )
