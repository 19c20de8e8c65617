"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_package()

import mricascade as mc  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_of(cls, **sizes):
    """The workload class ``cls`` at the given sizes."""
    return type(cls.__name__, (cls,), {"__init__": lambda self, seed: cls.__init__(self, seed, **sizes)})


TINY = {
    "recon-desk64": tiny_of(workloads.Recon, size=32, n_slices=6, per_volume=3),
    "train-desk64": tiny_of(workloads.Train, size=32, n_images=4, batch=2),
    "eval-full80": tiny_of(workloads.Evaluate, size=36, n_images=2, profile=dict(n_c=2, n_d=3, n_f=4)),
}


@pytest.fixture
def tiny(monkeypatch):
    for name in TINY:
        monkeypatch.setitem(workloads.WORKLOADS, name, TINY[name])
    monkeypatch.setattr(run, "SETUP_BURST_S", 0.0)


def measure(name, trace, tmp_path, seconds=0.05):
    return run.measure(name, seed=3, seconds=seconds, trace=trace, work=tmp_path)[:3]


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(tiny, tmp_path, name, trace):
    ledger, metrics, rounds = measure(name, trace, tmp_path)
    assert ledger.failed == 0, ledger.messages
    assert ledger.attempted >= 1 and rounds
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = run.units(trace)
    assert list(metrics) == [m["name"] for m in declared]
    assert all(units[m["name"]] == m["unit"] for m in declared)
    result = run.result(ledger, metrics, units)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and np.isfinite(entry["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert list(workloads.CANARIES) == list(workloads.WORKLOADS)


def _identity_relu(x):
    return x.copy(), mc.layers.ReluCache(x=np.ones_like(x))


@pytest.mark.parametrize("name", list(TINY))
def test_wrong_network_is_counted_as_failure(tiny, tmp_path, monkeypatch, name):
    # data consistency is restored after the CNN, so only the reference and
    # the stored canary values can see this
    monkeypatch.setattr(mc.cascade, "relu_forward", _identity_relu)
    ledger, _, _ = measure(name, False, tmp_path)
    assert ledger.failed >= 1
    assert not run.result(ledger, {}, {})["correct"]


def test_non_finite_output_is_counted_as_failure(tiny, tmp_path, monkeypatch):
    real = mc.reconstruct
    calls = []

    def corrupt(model, meas):
        out = real(model, meas)
        calls.append(1)
        if len(calls) == 8:  # after the canary's four slices
            out.channels[0, 0, 0] = np.nan
        return out

    monkeypatch.setattr(mc, "reconstruct", corrupt)
    ledger, _, _ = measure("recon-desk64", False, tmp_path)
    assert ledger.failed == 1
    assert ledger.messages[0].endswith("non-finite output")


def test_training_without_updates_fails_the_canary(tiny, tmp_path, monkeypatch):
    monkeypatch.setattr(mc.training, "adam_step", lambda params, grads, state, cfg: None)
    ledger, _, _ = measure("train-desk64", False, tmp_path)
    assert any(m.startswith("canary") for m in ledger.messages)


def test_self_times_sum_to_wall_time(tmp_path):
    w = TINY["recon-desk64"](5)
    w.prepare(tmp_path)
    ledger = workloads.Ledger()
    tr = tracer.Tracer()
    with tr:
        t0 = time.perf_counter()
        with tr.span("bench.window") as window:
            for _ in range(12):
                with tr.span("bench.round"):
                    w.round(ledger)
        wall = time.perf_counter() - t0
    assert ledger.failed == 0
    inside = [s for s in tr.spans if window.start <= s.start and s.end <= window.end]
    assert len(inside) > 12 * 10
    total_self = sum(s.self_time for s in inside)
    assert abs(total_self - wall) <= 0.01 * wall
    assert abs(total_self - window.duration) <= 1e-9 * len(inside) + 1e-6
    assert all(s.self_time >= -1e-9 for s in inside)
    # the tracer put every original back
    assert not hasattr(mc.cascade.cascade_forward, "__wrapped__")


def test_tracer_wraps_every_name_callers_use():
    tr = tracer.Tracer()
    with tr:
        for mod in (mc.cascade, mc.training, mc.cli.cascade_mod):
            assert hasattr(mod.cascade_forward, "__wrapped__")
        assert hasattr(mc.dclayer.fft2_complex, "__wrapped__")
        assert hasattr(mc.cli.generate_mask, "__wrapped__")
    assert not hasattr(mc.training.cascade_forward, "__wrapped__")


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "recon-desk64", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_gauge_scales_each_time_by_the_nearby_samples(monkeypatch):
    import gauge

    monkeypatch.setattr(gauge, "GAUGE_MS", 2.0)
    monkeypatch.setattr(gauge, "HALF_WINDOW_S", 1.0)
    g = gauge.Gauge()
    # the machine runs at half speed from t=10 on
    g.times = [0.0, 0.5, 1.0, 10.0, 10.5, 11.0]
    g.values = [2e-3, 2e-3, 2e-3, 4e-3, 4e-3, 4e-3]
    assert g.scale(0.6) == 1.0 and g.scale(10.6) == 0.5
    assert g.scale(4.0) == 1.0 and g.scale(9.5) == 0.5  # nearest sample
    fast = workloads.Round([0.1, 0.1], 2, [0.2, 0.6])
    slow = workloads.Round([0.2, 0.2], 2, [10.2, 10.6])
    metrics = run.end_to_end([fast, slow], [(0.5, 1.0), (10.5, 2.0)], g.scale)
    assert metrics["latency_ms_p50"] == (100.0, 4)
    assert metrics["throughput_per_s"] == (10.0, 4)
    assert metrics["setup_s"] == (1.0, 2)
    raw, n = run.end_to_end([fast, slow], [(0.5, 1.0), (10.5, 2.0)])["throughput_per_s"]
    assert raw == pytest.approx(4 / 0.6) and n == 4

