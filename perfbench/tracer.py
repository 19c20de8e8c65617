"""Span tracer that wraps the package's public functions from outside.

Nothing in the package changes: :meth:`Tracer.install` replaces each traced
function at every module attribute that is bound to it (for example both
``mricascade.cascade.cascade_forward`` and ``mricascade.training.cascade_forward``),
so callers that imported the name see the wrapper too. :meth:`Tracer.uninstall`
puts the originals back.

Each call becomes a :class:`Span` kept in memory. Spans nest per thread: a
span's parent is the innermost open span on the same thread, so worker
threads of a pool start their own trees. A span's self time is its duration
minus the time its children cover; children on one thread are disjoint, so
that is the sum of their durations.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Traced functions, by the module that defines them. Classes are left alone
# so isinstance checks keep working.
TRACED = {
    "fourier": ["fft2_complex", "fft2", "ifft2"],
    "dclayer": ["dc_forward", "dc_backward"],
    "layers": ["conv_forward", "conv_backward", "relu_forward", "relu_backward", "residual_add", "he_init"],
    "cascade": [
        "cascade_forward", "cascade_backward", "module_forward", "module_backward",
        "reconstruct", "load_checkpoint", "save_checkpoint", "build_model",
    ],
    "sampling": ["generate_mask", "apply_encoding", "zero_filled"],
    "training": ["train_epoch", "adam_step", "mse_loss", "augment"],
    "tensorcore": ["load_image", "save_image", "read_tensor", "write_tensor"],
    "cli": ["main", "cmd_generate", "cmd_evaluate"],
}


@dataclass(eq=False)
class Span:
    name: str
    thread: int
    start: float
    parent: "Span | None"
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _conv_attrs(layer, x):
    n_out, n_in, k, _ = layer.weights.shape
    h, w = x.shape[-2], x.shape[-1]
    role = "in" if n_in == 2 else "out" if n_out == 2 else "mid"
    macs = h * w * n_out * n_in * k * k
    return {"role": role, "macs": macs, "cols_bytes": h * w * n_in * k * k * x.dtype.itemsize}


# per-function hooks that record shape-derived attributes of a call
_ANNOTATE = {
    "layers.conv_forward": lambda args: _conv_attrs(args[0], args[1]),
    "layers.conv_backward": lambda args: _conv_attrs(args[0], args[2]),
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself, around calls into the package."""
        s = self._open(name, attrs)
        try:
            yield s
        finally:
            self._close(s)

    def _open(self, name: str, attrs: dict) -> Span:
        stack = self._stack()
        s = Span(name, threading.get_ident(), 0.0, stack[-1] if stack else None, attrs=attrs)
        stack.append(s)
        s.start = time.perf_counter()
        return s

    def _close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._stack().pop()
        if s.parent is not None:
            s.parent.child_time += s.duration
        with self._lock:
            self.spans.append(s)

    def _wrap(self, fn, name: str):
        annotate = _ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self._open(name, annotate(args) if annotate else {})
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(s)

        return wrapper

    def install(self, package: str = "mricascade") -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for short, names in TRACED.items():
            defining = sys.modules[f"{package}.{short}"]
            for fname in names:
                original = getattr(defining, fname)
                wrapper = self._wrap(original, f"{short}.{fname}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()



# --- per-layer metrics ------------------------------------------------------

# name -> unit, in the order they are reported
PER_LAYER = {
    "fourier.calls_per_op": "count",
    "fourier.self_ms_per_op": "ms",
    "dclayer.dc_forward.self_ms_per_op": "ms",
    "dclayer.dc_backward.self_ms_per_op": "ms",
    "layers.conv_forward.in.ms_per_call": "ms",
    "layers.conv_forward.mid.ms_per_call": "ms",
    "layers.conv_forward.out.ms_per_call": "ms",
    "layers.conv_backward.in.ms_per_call": "ms",
    "layers.conv_backward.mid.ms_per_call": "ms",
    "layers.conv_backward.out.ms_per_call": "ms",
    "layers.conv_forward.gflop_per_s": "GFLOP/s",
    "layers.conv_backward.gflop_per_s": "GFLOP/s",
    "layers.conv.cache_mb_per_op": "MB",
    "layers.relu_forward.self_ms_per_op": "ms",
    "layers.relu_backward.self_ms_per_op": "ms",
    "layers.residual_add.self_ms_per_op": "ms",
    "cascade.cascade_forward.self_ms_per_op": "ms",
    "cascade.cascade_backward.self_ms_per_op": "ms",
    "cascade.module_forward.ms_per_call": "ms",
    "cascade.zero_filled_calls_per_op": "count",
    "cascade.load_checkpoint.ms": "ms",
    "sampling.generate_mask.ms_per_call": "ms",
    "sampling.apply_encoding.ms_per_call": "ms",
    "sampling.mask_reuse_share": "ratio",
    "training.data_ms_per_step": "ms",
    "training.forward_ms_per_step": "ms",
    "training.backward_ms_per_step": "ms",
    "training.adam_ms_per_step": "ms",
    "training.mse_loss.self_ms_per_op": "ms",
    "tensorcore.load_image.ms_per_call": "ms",
    "cli.evaluate.parallelism": "ratio",
    "trace.overhead_pct": "%",
}

_DATA_STEPS = {"training.augment", "sampling.generate_mask", "sampling.apply_encoding", "sampling.zero_filled"}


def per_layer_metrics(spans: list, window: Span, items: int, mask_reuse_share: float, overhead_pct: float) -> dict:
    """Derive :data:`PER_LAYER` from recorded spans.

    ``*_per_op`` metrics count the spans inside ``window`` (on any thread)
    and divide by ``items``, the slices, samples or images the window
    completed; ``*_per_step`` divide by its optimiser steps. ``*_per_call``
    and ``load_checkpoint.ms`` average every recorded call. A layer the
    workload never calls reports 0.
    """
    inside = [s for s in spans if s.start >= window.start and s.end <= window.end]

    def under(s, parent):
        return s.parent is not None and s.parent.name == parent

    def of(pool, name, parent=None):
        return [s for s in pool if s.name == name and (parent is None or under(s, parent))]

    def ms(values):
        return 1e3 * sum(values)

    def mean_ms(found):
        return ms(s.duration for s in found) / len(found) if found else 0.0

    def self_per_op(*names):
        return ms(s.self_time for s in inside if s.name in names) / items

    def gflops(name):
        found = of(inside, name)
        busy = sum(s.self_time for s in found)
        # backward runs two GEMMs of the forward's size (weights, inputs)
        factor = 4 if name.endswith("backward") else 2
        return factor * sum(s.attrs["macs"] for s in found) / busy / 1e9 if busy else 0.0

    steps = len(of(inside, "training.adam_step"))

    def per_step(found):
        return ms(s.duration for s in found) / steps if steps else 0.0

    out = {
        "fourier.calls_per_op": len(of(inside, "fourier.fft2_complex")) / items,
        "fourier.self_ms_per_op": self_per_op("fourier.fft2_complex", "fourier.fft2", "fourier.ifft2"),
        "dclayer.dc_forward.self_ms_per_op": self_per_op("dclayer.dc_forward"),
        "dclayer.dc_backward.self_ms_per_op": self_per_op("dclayer.dc_backward"),
    }
    for kind in ("forward", "backward"):
        for role in ("in", "mid", "out"):
            found = [s for s in of(spans, f"layers.conv_{kind}") if s.attrs["role"] == role]
            out[f"layers.conv_{kind}.{role}.ms_per_call"] = mean_ms(found)
    out["layers.conv_forward.gflop_per_s"] = gflops("layers.conv_forward")
    out["layers.conv_backward.gflop_per_s"] = gflops("layers.conv_backward")
    out["layers.conv.cache_mb_per_op"] = sum(s.attrs["cols_bytes"] for s in of(inside, "layers.conv_forward")) / items / 1e6
    for name in ("layers.relu_forward", "layers.relu_backward", "layers.residual_add"):
        out[f"{name}.self_ms_per_op"] = self_per_op(name)
    out["cascade.cascade_forward.self_ms_per_op"] = self_per_op("cascade.cascade_forward")
    out["cascade.cascade_backward.self_ms_per_op"] = self_per_op("cascade.cascade_backward")
    out["cascade.module_forward.ms_per_call"] = mean_ms(of(spans, "cascade.module_forward"))
    out["cascade.zero_filled_calls_per_op"] = len(of(inside, "sampling.zero_filled")) / items
    out["cascade.load_checkpoint.ms"] = mean_ms(of(spans, "cascade.load_checkpoint"))
    out["sampling.generate_mask.ms_per_call"] = mean_ms(of(spans, "sampling.generate_mask"))
    out["sampling.apply_encoding.ms_per_call"] = mean_ms(of(spans, "sampling.apply_encoding"))
    out["sampling.mask_reuse_share"] = mask_reuse_share
    out["training.data_ms_per_step"] = per_step(
        [s for s in inside if s.name in _DATA_STEPS and under(s, "training.train_epoch")]
    )
    out["training.forward_ms_per_step"] = per_step(of(inside, "cascade.cascade_forward", "training.train_epoch"))
    out["training.backward_ms_per_step"] = per_step(of(inside, "cascade.cascade_backward", "training.train_epoch"))
    out["training.adam_ms_per_step"] = per_step(of(inside, "training.adam_step"))
    out["training.mse_loss.self_ms_per_op"] = self_per_op("training.mse_loss")
    out["tensorcore.load_image.ms_per_call"] = mean_ms(of(spans, "tensorcore.load_image"))
    # cascade_forward runs on the pool's workers, cmd_evaluate on the caller
    busy = ms(s.duration for s in of(inside, "cascade.cascade_forward"))
    evaluate = ms(s.duration for s in of(inside, "cli.cmd_evaluate"))
    out["cli.evaluate.parallelism"] = busy / evaluate if evaluate else 0.0
    out["trace.overhead_pct"] = overhead_pct
    return out
