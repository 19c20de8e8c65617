"""The benchmark's workloads: seeded inputs, one timed operation, output checks.

Each workload is a closed loop with one client. ``prepare`` writes the seeded
inputs to disk through the package's public API and loads them back, as a user
would; the benchmark times it as set-up. ``round`` runs the next unit of work
and returns its per-operation latencies; outputs are checked outside the timed
region and every mismatch is recorded in ``Ledger``. ``verify`` runs the checks
too costly to run between rounds, once the timed rounds are done. A round of
several operations calls ``between_ops`` between them, outside their timed
region; the benchmark times its speed gauge there.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mricascade as mc
from mricascade import cascade, cli

import checks

DESK = dict(n_c=3, n_d=3, n_f=16)
# the paper's full CNN (5 layers, 64 channels) in 2 cascades instead of 5, so
# that a run holds about 200 evaluate calls and their p90 has 20 beyond it
FULL = dict(n_c=2, n_d=5, n_f=64)
ACCELERATION = 3.0
N_LOW = 8
OUT_RTOL = 1e-3  # output vs float64 reference, relative to the reference peak


@dataclass
class Ledger:
    """Attempted and failed operations, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.messages) < 20:
            self.messages.append(what)


@dataclass
class Round:
    latencies_s: list  # one per operation
    items: int  # slices, samples or images completed
    at_s: list = field(default_factory=list)  # clock at each operation's midpoint


def no_pause() -> None:
    pass


def quiet_cli(argv: list) -> tuple:
    """Run the command line in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def generate(out: Path, n: int, size: int, seed: int, train_fraction: float = 0.8) -> list:
    argv = ["generate", "--n", n, "--size", size, "--seed", seed, "--train-fraction", train_fraction, "--out", out]
    code, text = quiet_cli(argv)
    if code != 0:
        raise RuntimeError(f"generate exited {code}: {text.strip()}")
    return [p for p, _ in cli.read_manifest(out)]


def write_model(path: Path, seed: int, profile: dict):
    cascade.save_checkpoint(mc.build_model(mc.Rng(seed), **profile), path)
    return cascade.load_checkpoint(path)


class Recon:
    """``reconstruct`` on a stream of pre-encoded slices; a volume of
    ``per_volume`` slices shares one mask. One operation is one slice."""

    name = "recon-desk64"
    warmup_rounds = 10

    def __init__(self, seed: int, size: int = 64, n_slices: int = 200, per_volume: int = 10):
        self.seed, self.size, self.n_slices, self.per_volume = seed, size, n_slices, per_volume

    def prepare(self, work: Path) -> None:
        paths = generate(work / "data", self.n_slices, self.size, self.seed)
        self.model = write_model(work / "model.csc1", self.seed, DESK)
        self.truth = [mc.load_image(p) for p in paths]
        rng = mc.Rng(self.seed).child(1)
        n_vol = math.ceil(self.n_slices / self.per_volume)
        self.masks = [mc.generate_mask(rng.child(v), self.size, self.size, ACCELERATION, N_LOW) for v in range(n_vol)]
        self.meas = [
            mc.apply_encoding(img.astype(self.model.dtype), self.masks[i // self.per_volume])
            for i, img in enumerate(self.truth)
        ]
        self.next = 0
        self.first_out = [None] * self.n_slices
        self.mse = [None] * self.n_slices

    @property
    def mask_reuse_share(self) -> float:
        return 1.0 - len(self.masks) / self.n_slices

    def round(self, ledger: Ledger) -> Round:
        i = self.next % self.n_slices
        self.next += 1
        meas = self.meas[i]
        ledger.attempted += 1
        t0 = time.perf_counter()
        try:
            out = mc.reconstruct(self.model, meas)
        except Exception as exc:  # counted, reported, and the loop goes on
            ledger.fail(f"slice {i}: {type(exc).__name__}: {exc}")
            return Round([], 0)
        dt = time.perf_counter() - t0
        self.check(ledger, i, out.channels)
        return Round([dt], 1, [t0 + dt / 2])

    def check(self, ledger: Ledger, i: int, out: np.ndarray) -> None:
        meas = self.meas[i]
        lines = meas.mask.phase_lines
        kspace = checks.as_complex(meas.kspace.channels)
        if not ledger.check(bool(np.isfinite(out).all()), f"slice {i}: non-finite output"):
            return
        res = checks.dc_residual(out, kspace, lines)
        if not ledger.check(res <= checks.DC_TOL, f"slice {i}: k-space off the measurements by {res:.2e}"):
            return
        first = self.first_out[i]
        if first is None:
            self.mse[i] = checks.mse(out, self.truth[i].channels)
            self.first_out[i] = out.copy()
        else:
            err = float(np.max(np.abs(out - first)))
            ledger.check(err <= 1e-6 * float(np.max(np.abs(first))), f"slice {i}: repeat differs by {err:.2e}")

    def verify(self, ledger: Ledger) -> None:
        """Compare each slice's first output with the float64 reference. It
        costs half a reconstruct, so it runs after the timed rounds, which
        then all do the same work."""
        for i, out in enumerate(self.first_out):
            if out is None:
                continue
            meas = self.meas[i]
            ref = checks.reference_forward(self.model, checks.as_complex(meas.kspace.channels), meas.mask.phase_lines)
            err = float(np.max(np.abs(out - ref)))
            ledger.check(err <= OUT_RTOL * float(np.max(np.abs(ref))), f"slice {i}: off the reference by {err:.2e}")

    def outputs(self) -> list:
        return self.mse


class Train:
    """``train_epoch`` over a fixed dataset with augmentation and a fresh mask
    per sample. One round is one epoch, one operation one optimiser step, and
    throughput counts samples."""

    name = "train-desk64"
    warmup_rounds = 1
    mask_reuse_share = 0.0
    between_ops = staticmethod(no_pause)

    def __init__(self, seed: int, size: int = 64, n_images: int = 40, batch: int = 10, alpha: float = 1e-4):
        self.seed, self.size, self.n_images = seed, size, n_images
        self.cfg = mc.TrainConfig(alpha=alpha, batch_size=batch, acceleration=ACCELERATION, n_low=N_LOW, seed=seed)

    def prepare(self, work: Path) -> None:
        paths = generate(work / "data", self.n_images, self.size, self.seed)
        self.model = write_model(work / "model.csc1", self.seed, DESK)
        self.data = [mc.load_image(p) for p in paths]
        self.rng = mc.Rng(self.seed).child(1)
        self.state = mc.init_adam_state(self.model.parameters())
        self.epoch = 0
        self.losses = []  # mean loss per epoch

    def round(self, ledger: Ledger) -> Round:
        steps = math.ceil(self.n_images / self.cfg.batch_size)
        ledger.attempted += steps
        starts, ends = [time.perf_counter()], []

        def log_fn(epoch, step, loss, ms):
            ends.append(time.perf_counter())
            self.between_ops()
            starts.append(time.perf_counter())

        try:
            _, loss = mc.train_epoch(self.model, self.data, self.cfg, self.rng, self.state, log_fn=log_fn, epoch=self.epoch)
        except Exception as exc:
            ledger.fail(f"epoch {self.epoch}: {type(exc).__name__}: {exc}", count=steps)
            return Round([], 0)
        finally:
            self.epoch += 1
        ok = ledger.check(math.isfinite(loss), f"epoch {self.epoch - 1}: loss {loss}")
        ok = ok and ledger.check(
            all(np.isfinite(p).all() for p in self.model.parameters()), f"epoch {self.epoch - 1}: non-finite weights"
        )
        self.losses.append(loss)
        spans = list(zip(starts, ends))
        return Round([e - s for s, e in spans], self.n_images if ok else 0, [(s + e) / 2 for s, e in spans])

    def verify(self, ledger: Ledger) -> None:
        """Losses and weights are checked every round."""

    def outputs(self) -> list:
        return self.losses


class Evaluate:
    """In-process ``mricascade evaluate`` with a full-scale checkpoint; every
    call draws fresh masks, one per image. One operation is one command over
    the test split, and throughput counts images."""

    name = "eval-full80"
    warmup_rounds = 1
    mask_reuse_share = 0.0

    def __init__(self, seed: int, size: int = 80, n_images: int = 2, profile=FULL):
        self.seed, self.size, self.n_images, self.profile = seed, size, n_images, profile

    def prepare(self, work: Path) -> None:
        generate(work / "data", 2 * self.n_images, self.size, self.seed, train_fraction=0.5)
        self.data = work / "data"
        self.ckpt = work / "model.csc1"
        self.model = write_model(self.ckpt, self.seed, self.profile)
        test = [p for p, split in cli.read_manifest(self.data) if split == "test"]
        self.truth = [mc.load_image(p) for p in test]
        self.report = work / "report.csv"
        self.calls = 0
        self.mse = []  # per call, per image

    def round(self, ledger: Ledger) -> Round:
        mask_seed = self.seed * 100003 + self.calls
        self.calls += 1
        ledger.attempted += 1
        argv = [
            "evaluate", "--checkpoint", self.ckpt, "--data", self.data, "--split", "test",
            "--acceleration", ACCELERATION, "--n-low", N_LOW, "--mask-seed", mask_seed,
            "--out-report", self.report,
        ]
        t0 = time.perf_counter()
        try:
            code, text = quiet_cli(argv)
        except Exception as exc:
            ledger.fail(f"evaluate {mask_seed}: {type(exc).__name__}: {exc}")
            return Round([], 0)
        dt = time.perf_counter() - t0
        if not ledger.check(code == 0, f"evaluate {mask_seed}: exit {code}: {text.strip()[-200:]}"):
            return Round([], 0)
        if not self.check(ledger, mask_seed):
            return Round([], 0)
        return Round([dt], len(self.truth), [t0 + dt / 2])

    def check(self, ledger: Ledger, mask_seed: int) -> bool:
        rows = [r.split(",") for r in self.report.read_text().strip().splitlines()[1:]]
        if not ledger.check(len(rows) == len(self.truth), f"evaluate {mask_seed}: {len(rows)} report rows"):
            return False
        mses = []
        for i, (row, truth) in enumerate(zip(rows, self.truth)):
            got, got_zf = float(row[1]), float(row[2])
            # the command draws image i's mask from Rng(mask_seed).child(i)
            mask = mc.generate_mask(mc.Rng(mask_seed).child(i), self.size, self.size, ACCELERATION, N_LOW)
            kspace = np.fft.fft2(checks.as_complex(truth.channels), norm="ortho")
            zf = np.fft.ifft2(np.where(mask.phase_lines[:, None], kspace, 0), norm="ortho")
            want_zf = checks.mse(np.stack([zf.real, zf.imag]), truth.channels)
            if not ledger.check(checks.close(got_zf, want_zf), f"evaluate {mask_seed} image {i}: zero-filled mse {got_zf} != {want_zf}"):
                return False
            if not ledger.check(math.isfinite(got), f"evaluate {mask_seed} image {i}: mse {got}"):
                return False
            # the float64 reference costs as much as the command: first call only
            if self.calls == 1:
                ref = checks.reference_forward(self.model, kspace, mask.phase_lines)
                want = checks.mse(ref, truth.channels)
                if not ledger.check(checks.close(got, want), f"evaluate {mask_seed} image {i}: mse {got} != reference {want}"):
                    return False
            mses.append(got)
        self.mse.append(mses)
        return True

    def verify(self, ledger: Ledger) -> None:
        """Every report is checked in its round; the reference in the first."""

    def outputs(self) -> list:
        return [m for call in self.mse for m in call]


WORKLOADS = {w.name: w for w in (Recon, Train, Evaluate)}

# Small fixed-seed versions of each workload whose outputs are stored in
# reference.json: (workload, rounds). The training canary uses a large
# learning rate so that a wrong gradient moves its losses.
CANARIES = {
    "recon-desk64": (lambda: Recon(0, size=32, n_slices=4, per_volume=2), 4),
    "train-desk64": (lambda: Train(0, size=32, n_images=8, batch=2, alpha=1e-3), 2),
    "eval-full80": (lambda: Evaluate(0, size=40, n_images=2, profile=dict(n_c=2, n_d=3, n_f=8)), 1),
}


def canary(name: str, work: Path, ledger: Ledger) -> list:
    make, rounds = CANARIES[name]
    w = make()
    w.prepare(work)
    for _ in range(rounds):
        w.round(ledger)
    w.verify(ledger)
    return [math.nan if v is None else float(v) for v in w.outputs()]
