"""The full reconstruction network: CNN de-aliasing blocks interleaved with
data-consistency steps.

Each stage applies a small CNN (conv+ReLU stack ending in a projection back
to two channels), adds the stage input back (the block learns a correction,
not a full mapping), and then restores the measured k-space coefficients.
Stages have independent weights. With every parameter zero the whole cascade
is the identity on consistent inputs, which is asserted by the tests.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .dclayer import DcConfig, dc_backward, dc_forward
from .errors import (
    CheckpointFormatError,
    InvalidParameterError,
    InvalidShapeError,
    InvalidStateError,
)
from .layers import (
    ConvLayer,
    conv_backward,
    conv_forward,
    he_init,
    relu_backward,
    relu_forward,
    residual_add,
)
from .sampling import Measurements, zero_filled
from .tensorcore import ComplexImage, Rng, read_tensor, write_tensor

# full-scale defaults
DEFAULT_PROFILE = {"n_c": 5, "n_d": 5, "n_f": 64, "k": 3}


@dataclass(eq=False)
class CnnModule:
    """One de-aliasing block: (n_d - 1) conv+ReLU layers, then a conv that
    projects back to two channels with no nonlinearity (its output must span
    negative real/imaginary values)."""

    layers: list


@dataclass(eq=False)
class CascadeModel:
    stages: list
    n_c: int
    n_d: int
    n_f: int
    k: int
    lam: float = math.inf

    def parameters(self) -> list:
        """All trainable arrays, in checkpoint order: per stage, per layer,
        weights then bias. Arrays are the live ones; in-place updates apply."""
        out = []
        for stage in self.stages:
            for layer in stage.layers:
                out.append(layer.weights)
                out.append(layer.bias)
        return out

    def zero_grads(self) -> list:
        return [np.zeros_like(p) for p in self.parameters()]

    @property
    def dtype(self):
        return self.stages[0].layers[0].weights.dtype

    def astype(self, dtype) -> "CascadeModel":
        stages = [CnnModule([layer.astype(dtype) for layer in s.layers]) for s in self.stages]
        return CascadeModel(stages, self.n_c, self.n_d, self.n_f, self.k, self.lam)


def _layer_channel_plan(n_d: int, n_f: int) -> list:
    # (n_in, n_out) per conv layer: 2 -> n_f, n_f -> n_f ..., n_f -> 2
    plan = [(2, n_f)]
    plan += [(n_f, n_f)] * (n_d - 2)
    plan.append((n_f, 2))
    return plan


def build_model(
    rng: Rng,
    n_c: int,
    n_d: int,
    n_f: int,
    k: int = 3,
    lam: float = math.inf,
    dtype=np.float32,
) -> CascadeModel:
    """He-initialized cascade with independent weights per stage."""
    if n_c < 1:
        raise InvalidParameterError(f"n_c must be >= 1, got {n_c}")
    if n_d < 2:
        raise InvalidParameterError(f"n_d must be >= 2, got {n_d}")
    if n_f < 1:
        raise InvalidParameterError(f"n_f must be >= 1, got {n_f}")
    stages = []
    for _ in range(n_c):
        layers = [he_init(rng, n_out, n_in, k, dtype=dtype) for n_in, n_out in _layer_channel_plan(n_d, n_f)]
        stages.append(CnnModule(layers))
    return CascadeModel(stages, n_c=n_c, n_d=n_d, n_f=n_f, k=k, lam=lam)


def zero_model(n_c: int, n_d: int, n_f: int, k: int = 3, lam: float = math.inf, dtype=np.float32) -> CascadeModel:
    """All-parameters-zero cascade (identity behaviour on consistent inputs)."""
    stages = []
    for _ in range(n_c):
        layers = [
            ConvLayer(np.zeros((n_out, n_in, k, k), dtype=dtype), np.zeros(n_out, dtype=dtype))
            for n_in, n_out in _layer_channel_plan(n_d, n_f)
        ]
        stages.append(CnnModule(layers))
    return CascadeModel(stages, n_c=n_c, n_d=n_d, n_f=n_f, k=k, lam=lam)


def module_forward(module: CnnModule, x: np.ndarray):
    h = x
    caches = []
    for layer in module.layers[:-1]:
        h, c = conv_forward(layer, h)
        caches.append(c)
        h, c = relu_forward(h)
        caches.append(c)
    h, c = conv_forward(module.layers[-1], h)
    caches.append(c)
    return h, caches


def module_backward(module: CnnModule, caches: list, grad: np.ndarray):
    """Returns (grad wrt module input, [(grad_w, grad_b) per layer in order])."""
    param_grads = [None] * len(module.layers)
    ci = len(caches) - 1
    grad, gw, gb = conv_backward(module.layers[-1], caches[ci], grad)
    param_grads[-1] = (gw, gb)
    ci -= 1
    for li in range(len(module.layers) - 2, -1, -1):
        grad = relu_backward(caches[ci], grad)
        ci -= 1
        grad, gw, gb = conv_backward(module.layers[li], caches[ci], grad)
        ci -= 1
        param_grads[li] = (gw, gb)
    return grad, param_grads


@dataclass(eq=False)
class CascadeCache:
    stage_caches: list
    cfg: DcConfig
    out_shape: tuple
    layer_shapes: list  # weight shapes, for stale-cache detection


def cascade_forward(model: CascadeModel, x_u: ComplexImage, meas: Measurements):
    """Run the cascade from the starting image ``x_u``, normally
    ``zero_filled(meas)``.

    Returns the reconstruction and the cache for :func:`cascade_backward`.
    """
    if (x_u.height, x_u.width) != (meas.mask.height, meas.mask.width):
        raise InvalidShapeError(
            f"image is {x_u.height}x{x_u.width} but measurements are "
            f"{meas.mask.height}x{meas.mask.width}"
        )

    cfg = DcConfig(measured=meas, lam=model.lam)
    x = x_u
    stage_caches = []
    for stage in model.stages:
        h, caches = module_forward(stage, x.channels)
        r = residual_add(ComplexImage(h), x)
        x = dc_forward(r, cfg)
        stage_caches.append(caches)
    cache = CascadeCache(
        stage_caches=stage_caches,
        cfg=cfg,
        out_shape=x.channels.shape,
        layer_shapes=[layer.weights.shape for s in model.stages for layer in s.layers],
    )
    return x, cache


def cascade_backward(model: CascadeModel, cache: CascadeCache, grad_out: ComplexImage) -> list:
    """Backpropagate through every stage; returns gradients aligned with
    ``model.parameters()`` (weights then bias, per layer, per stage)."""
    if len(cache.stage_caches) != len(model.stages) or cache.layer_shapes != [
        layer.weights.shape for s in model.stages for layer in s.layers
    ]:
        raise InvalidStateError("cache does not match this model (stale or mismatched)")
    if grad_out.channels.shape != cache.out_shape:
        raise InvalidStateError(
            f"grad_out shape {grad_out.channels.shape} does not match forward output {cache.out_shape}"
        )

    per_stage = [None] * len(model.stages)
    g = grad_out
    for si in range(len(model.stages) - 1, -1, -1):
        g = dc_backward(g, cache.cfg)
        module_grad_in, param_grads = module_backward(
            model.stages[si], cache.stage_caches[si], g.channels
        )
        per_stage[si] = param_grads
        # residual connection: gradient flows through the module and the skip
        g = ComplexImage(module_grad_in + g.channels)

    flat = []
    for param_grads in per_stage:
        for gw, gb in param_grads:
            flat.append(gw)
            flat.append(gb)
    return flat


# --- checkpoint container -------------------------------------------------
#
# magic "CSC1", u8 version, u8 lambda mode (1 = infinite), f64 lambda,
# u32 n_c, n_d, n_f, k, u32 tensor count, then (u16 name length, name,
# CXT1 blob) per tensor, named stage{s}.conv{i}.weight|bias in order.

_CKPT_MAGIC = b"CSC1"
_CKPT_VERSION = 1


def _tensor_names(n_c: int, n_d: int):
    for s in range(n_c):
        for i in range(n_d):
            yield f"stage{s}.conv{i}.weight"
            yield f"stage{s}.conv{i}.bias"


def save_checkpoint(model: CascadeModel, path) -> None:
    """Write a CSC1 file to a temp file beside ``path``, then rename it over
    ``path``: a failed write leaves any existing checkpoint there intact."""
    params = model.parameters()
    names = list(_tensor_names(model.n_c, model.n_d))
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(_CKPT_MAGIC)
            f.write(struct.pack("<BB", _CKPT_VERSION, 1 if model.lam == math.inf else 0))
            f.write(struct.pack("<d", 0.0 if model.lam == math.inf else model.lam))
            f.write(struct.pack("<4I", model.n_c, model.n_d, model.n_f, model.k))
            f.write(struct.pack("<I", len(params)))
            for name, arr in zip(names, params):
                raw = name.encode("utf-8")
                f.write(struct.pack("<H", len(raw)))
                f.write(raw)
                write_tensor(f, arr)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _read_exact(f, n: int, path) -> bytes:
    raw = f.read(n)
    if len(raw) != n:
        raise CheckpointFormatError(f"{path}: truncated checkpoint")
    return raw


def load_checkpoint(path) -> CascadeModel:
    """Read a CSC1 file; malformed content raises CheckpointFormatError."""
    with open(path, "rb") as f:
        if f.read(4) != _CKPT_MAGIC:
            raise CheckpointFormatError(f"{path}: not a cascade checkpoint (bad magic)")
        version, lam_mode = struct.unpack("<BB", _read_exact(f, 2, path))
        if version != _CKPT_VERSION:
            raise CheckpointFormatError(f"{path}: unsupported checkpoint version {version}")
        (lam_value,) = struct.unpack("<d", _read_exact(f, 8, path))
        if lam_mode not in (0, 1) or (lam_mode == 0 and not 0 < lam_value < math.inf):
            raise CheckpointFormatError(
                f"{path}: bad lambda header (mode={lam_mode}, value={lam_value})"
            )
        n_c, n_d, n_f, k = struct.unpack("<4I", _read_exact(f, 16, path))
        (count,) = struct.unpack("<I", _read_exact(f, 4, path))
        if n_c < 1 or n_d < 2 or count != 2 * n_c * n_d:
            raise CheckpointFormatError(
                f"{path}: inconsistent header (n_c={n_c}, n_d={n_d}, tensors={count})"
            )
        tensors = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(f, 2, path))
            try:
                name = _read_exact(f, name_len, path).decode("utf-8")
                tensors[name] = read_tensor(f)
            except (UnicodeDecodeError, InvalidParameterError, InvalidShapeError) as exc:
                raise CheckpointFormatError(f"{path}: {exc}") from exc
            if not np.isfinite(tensors[name]).all():
                raise CheckpointFormatError(f"{path}: tensor {name} has non-finite values")
        if f.read(1):
            raise CheckpointFormatError(f"{path}: trailing bytes after last tensor")

    lam = math.inf if lam_mode == 1 else lam_value
    plan = _layer_channel_plan(n_d, n_f)
    stages = []
    dtype = None
    for s in range(n_c):
        layers = []
        for i, (n_in, n_out) in enumerate(plan):
            try:
                w = tensors[f"stage{s}.conv{i}.weight"]
                b = tensors[f"stage{s}.conv{i}.bias"]
            except KeyError as exc:
                raise CheckpointFormatError(f"{path}: missing tensor {exc}") from exc
            if w.shape != (n_out, n_in, k, k) or b.shape != (n_out,):
                raise CheckpointFormatError(
                    f"{path}: stage{s}.conv{i} has shape {w.shape}, "
                    f"expected {(n_out, n_in, k, k)} for header hyperparameters"
                )
            if dtype is None:
                dtype = w.dtype
            elif w.dtype != dtype or b.dtype != dtype:
                raise CheckpointFormatError(f"{path}: mixed tensor precisions")
            layers.append(ConvLayer(w, b))
        stages.append(CnnModule(layers))
    return CascadeModel(stages, n_c=n_c, n_d=n_d, n_f=n_f, k=k, lam=lam)


def reconstruct(model: CascadeModel, meas: Measurements) -> ComplexImage:
    """Zero-fill and run the cascade (the inference entry point)."""
    x_u = zero_filled(meas).astype(model.dtype)
    x_cnn, _ = cascade_forward(model, x_u, meas)
    return x_cnn
