"""Benchmark of the mricascade reconstruction engine.

    python3 perfbench/run.py --workload recon-desk64 --seed 1 --seconds 20 --trace 0

Runs one seeded workload from ``perfbench/workloads.py`` against the package
in ``src/`` of the checkout this file sits in, checks every output, and prints
a table followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced.
Their times are scaled to a nominal machine speed by the gauge of
``perfbench/gauge.py``, timed between operations; the table prints the raw
values beside them.
With ``--trace 1`` rounds alternate between untraced and traced, with every
public function of the package wrapped by ``perfbench/tracer.py``, and the
metrics are the per-layer ones from the traced rounds.

The process exits 1 if any operation failed or an output was wrong, exits 1
without a result if ``src/mricascade`` is missing, and exits 2 for an unknown
workload. Inputs and the model are written to a temporary directory under
``.bench_build/`` in the checkout and removed at exit.
``--write-reference`` recomputes the stored canary values in
``perfbench/reference.json``; do that only for a change meant to alter the
arithmetic.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# BLAS threads are fixed before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RECON_THREADS = "2"
# Set-up is timed again at this many even intervals through the run, each
# time repeated for at least SETUP_BURST_S, so that its median sees the same
# drift in machine speed as the operations.
SETUP_POINTS = 8
SETUP_BURST_S = 0.25
# glibc serves blocks above its mmap threshold with fresh pages from the
# kernel, and raises the threshold (up to 32 MiB) each time such a block is
# freed, so how often an array is faulted in afresh depends on everything the
# process allocated before, this benchmark's own checks included. A
# reconstruct at 64x64 then spends up to 40% of its time in page faults, and
# page faults are what a busy host slows most. The thresholds are fixed where
# glibc's own adjustment ends up once large blocks have been freed, so that
# every run reuses heap pages from its first timed operation on.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

END_TO_END = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import numpy and the package from this checkout's ``src`` only."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["CASCADE_RECON_THREADS"] = RECON_THREADS
    src = ROOT / "src"
    if not (src / "mricascade" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {src / 'mricascade'}")
    sys.path.insert(0, str(src))
    import mricascade

    if Path(mricascade.__file__).resolve().parent != src / "mricascade":
        raise SystemExit(f"error: imported mricascade from {mricascade.__file__}, not {src}")


def pin_allocator() -> bool:
    """Fix glibc's mmap and trim thresholds; False where the C library has no
    mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1 and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1


def environment(pinned: bool) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "CASCADE_RECON_THREADS": os.environ.get("CASCADE_RECON_THREADS"),
        "optimize": sys.flags.optimize,
        "mmap_threshold": MMAP_THRESHOLD if pinned else "dynamic",
    }


def no_gauge(at: float) -> float:
    return 1.0


def run_rounds(w, ledger, count: int = 0, until: float = 0.0, gauge=None) -> list:
    """Run ``count`` rounds, or rounds until the clock reads ``until``,
    sampling ``gauge`` before each."""
    rounds = []
    while len(rounds) < count or (not count and time.perf_counter() < until):
        if gauge is not None:
            gauge.sample()
        rounds.append(w.round(ledger))
    return rounds


def time_setup(cls, seed: int, work: Path, burst: float = 0.0, gauge=None) -> tuple:
    """Prepare fresh workloads in ``work`` until ``burst`` seconds are spent
    (at least once), with ``gauge`` sampled before and after; returns the
    last workload and each set-up as (clock at its midpoint, duration)."""
    if gauge is not None:
        gauge.sample(force=True)
    times = []
    while not times or sum(dt for _, dt in times) < burst:
        shutil.rmtree(work, ignore_errors=True)
        w = cls(seed)
        t0 = time.perf_counter()
        w.prepare(work)
        dt = time.perf_counter() - t0
        times.append((t0 + dt / 2, dt))
    if gauge is not None:
        gauge.sample(force=True)
    return w, times


def end_to_end(rounds, setups, scale=no_gauge) -> dict:
    """End-to-end metrics, each time multiplied by ``scale`` at the clock
    reading it was taken around."""
    import numpy as np

    lat = [x * scale(at) for r in rounds for x, at in zip(r.latencies_s, r.at_s)]
    items = sum(r.items for r in rounds)
    return {
        "setup_s": (statistics.median(dt * scale(at) for at, dt in setups), len(setups)),
        "latency_ms_p50": (1e3 * statistics.median(lat), len(lat)),
        "latency_ms_p90": (1e3 * float(np.percentile(lat, 90)), len(lat)),
        "throughput_per_s": (items / sum(lat), items),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def check_canary(name: str, ledger, work: Path) -> None:
    """Compare the workload's canary with the values stored at the commit
    that defined the benchmark."""
    import checks
    import workloads

    stored = json.loads(REFERENCE.read_text())[name]
    got = workloads.canary(name, work, ledger)
    ledger.attempted += 1
    ok = len(got) == len(stored) and all(checks.close(g, s) for g, s in zip(got, stored))
    ledger.check(ok, f"canary {name}: {got} != stored {stored}")


def write_reference(work: Path) -> None:
    import workloads

    values = {name: workloads.canary(name, work / name, workloads.Ledger()) for name in workloads.CANARIES}
    REFERENCE.write_text(json.dumps(values, indent=1) + "\n")


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path):
    """Returns the ledger, the metrics as name -> (value, samples), the
    rounds, and for ``--trace 0`` the raw metrics and the gauge's median ms."""
    import gauge as gauging
    import tracer as tracing
    import workloads

    ledger = workloads.Ledger()
    cls = workloads.WORKLOADS[name]
    if not trace:
        gauge = gauging.Gauge()
        w, setups = time_setup(cls, seed, work / "setup", gauge=gauge)
        check_canary(name, ledger, work / "canary")
        w.between_ops = gauge.sample
        run_rounds(w, ledger, count=w.warmup_rounds, gauge=gauge)
        start = time.perf_counter()
        rounds = []
        for k in range(1, SETUP_POINTS + 1):
            rounds += run_rounds(w, ledger, until=start + k * seconds / SETUP_POINTS, gauge=gauge)
            setups += time_setup(cls, seed, work / "setup-again", SETUP_BURST_S, gauge)[1]
        rounds = rounds or run_rounds(w, ledger, count=1, gauge=gauge)
        gauge.sample(force=True)
        w.verify(ledger)
        raw = end_to_end(rounds, setups)
        return ledger, end_to_end(rounds, setups, gauge.scale), rounds, raw, gauge.median_ms()

    w, _ = time_setup(cls, seed, work / "setup")
    check_canary(name, ledger, work / "canary")
    run_rounds(w, ledger, count=w.warmup_rounds)
    start = time.perf_counter()

    # untraced and traced rounds alternate, so that drift in the machine's
    # speed cancels out of the overhead
    tr = tracing.Tracer()
    plain, traced = [], []
    with tr.span("bench.window") as window:
        while time.perf_counter() < start + seconds:
            plain.append(w.round(ledger))
            with tr, tr.span("bench.round"):
                traced.append(w.round(ledger))
    w.verify(ledger)
    with tr:
        cls(seed).prepare(work / "traced-setup")

    def p50(rounds):
        return statistics.median(x for r in rounds for x in r.latencies_s)

    overhead = 100.0 * (p50(traced) / p50(plain) - 1.0)
    items = sum(r.items for r in traced)
    metrics = tracing.per_layer_metrics(tr.spans, window, items, w.mask_reuse_share, overhead)
    return ledger, {k: (v, items) for k, v in metrics.items()}, traced, None, None


def units(trace: bool) -> dict:
    import tracer

    return tracer.PER_LAYER if trace else END_TO_END


def result(ledger, metrics: dict, units: dict) -> dict:
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    pinned = pin_allocator()
    import_package()
    import gauge
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    try:
        if args.write_reference:
            write_reference(work)
            return 0
        ledger, metrics, rounds, raw, gauge_ms = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unit_of = units(bool(args.trace))
    print(f"# env {json.dumps(environment(pinned))}")
    print(f"# workload {args.workload} seed {args.seed} rounds {len(rounds)} trace {args.trace}")
    if raw is not None:
        print(f"# gauge median {gauge_ms:.4g} ms, nominal {gauge.GAUGE_MS} ms; raw values unscaled")
    for key, (value, samples) in metrics.items():
        line = f"{key:<42} {value:>14.6g} {unit_of[key]:<8} n={samples}"
        print(line if raw is None else f"{line:<76} raw {raw[key][0]:.6g}")
    print(f"# error_rate {ledger.failed / max(ledger.attempted, 1):.6g} ({ledger.failed} of {ledger.attempted} operations)")
    for msg in ledger.messages:
        print(f"# FAILED {msg}")
    out = result(ledger, metrics, unit_of)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
