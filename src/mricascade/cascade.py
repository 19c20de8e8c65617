"""The full reconstruction network: CNN de-aliasing blocks interleaved with
data-consistency steps.

Each stage applies a small CNN (conv+ReLU stack ending in a projection back
to two channels), adds the stage input back (the block learns a correction,
not a full mapping), and then restores the measured k-space coefficients.
Stages have independent weights. With every parameter zero the whole cascade
is the identity on consistent inputs, which is asserted by the tests.

A block pads its input once into the padded-flat layout of
:mod:`mricascade.layers`, and its activations stay in that layout from its
first layer to its last. Every padded-flat buffer a layer function returns is
zero outside its image, so each conv's output is the next layer's padded
input as it stands, and the ReLU runs over the whole buffer. Only the block
output is trimmed.

For the backward pass a block keeps one array per conv layer, that layer's
padded-flat input, which conv_backward_padded reads without padding it again.
Past the first layer the input is a ReLU output, which is all the ReLU's
backward needs, so no pre-activation is kept. The backward mirrors the
forward: the block pads its output gradient once, each conv_backward_padded
returns the next padded-flat gradient, zero outside its image, and
relu_backward masks it by where the cached ReLU output is positive. Only the
block's input gradient is trimmed. The backward pass stops at
stage 0's first layer: the zero-filled starting image takes no gradient, so
that layer's input gradient is never computed. Inference (:func:`reconstruct`
and the command line) keeps no caches: each layer input is freed once the
next layer has been computed.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .dclayer import DcConfig, check_lam, dc_backward, dc_forward
from .errors import (
    CheckpointFormatError,
    InvalidParameterError,
    InvalidShapeError,
    InvalidStateError,
    naming_file,
)
from .layers import (
    ConvCache,
    ConvLayer,
    ReluCache,
    conv_backward_padded,
    conv_forward_padded,
    he_init,
    interior,
    pad_flat,
    relu_backward,
    relu_forward,
    residual_add,
)
from .sampling import Measurements
from .tensorcore import ComplexImage, Rng, read_tensor, write_tensor

# full-scale defaults
DEFAULT_PROFILE = {"n_c": 5, "n_d": 5, "n_f": 64, "k": 3}


@dataclass(eq=False)
class CnnModule:
    """One de-aliasing block: (n_d - 1) conv+ReLU layers, then a conv that
    projects back to two channels with no nonlinearity (its output must span
    negative real/imaginary values). Every layer has the same kernel size,
    so one padding serves the whole block, and takes the channels the layer
    before it gives."""

    layers: list

    def __post_init__(self):
        if len({layer.kernel_size for layer in self.layers}) > 1:
            raise InvalidShapeError("the layers of a block must share one kernel size")
        for i, (a, b) in enumerate(zip(self.layers, self.layers[1:])):
            if a.n_out != b.n_in:
                raise InvalidShapeError(f"layer {i} gives {a.n_out} channels, layer {i + 1} takes {b.n_in}")


@dataclass(eq=False)
class CascadeModel:
    """The stages and the DC fidelity weight ``lam``; n_c, n_d, n_f and k
    are read off the layers, so they cannot disagree with them."""

    stages: list
    lam: float = math.inf

    @property
    def n_c(self) -> int:
        return len(self.stages)

    @property
    def n_d(self) -> int:
        return len(self.stages[0].layers)

    @property
    def n_f(self) -> int:
        return self.stages[0].layers[0].n_out

    @property
    def k(self) -> int:
        return self.stages[0].layers[0].kernel_size

    def parameters(self) -> list:
        """All trainable arrays, in checkpoint order: per stage, per layer,
        weights then bias. Arrays are the live ones; in-place updates apply."""
        out = []
        for stage in self.stages:
            for layer in stage.layers:
                out.append(layer.weights)
                out.append(layer.bias)
        return out

    @property
    def dtype(self):
        return self.stages[0].layers[0].weights.dtype


def _assemble(n_c: int, n_d: int, n_f: int, k: int, lam: float, make_layer) -> CascadeModel:
    """The one place a model is built: check the hyperparameters, then make
    every layer in checkpoint order with ``make_layer(n_in, n_out)``."""
    for name, value, low in (("n_c", n_c, 1), ("n_d", n_d, 2), ("n_f", n_f, 1), ("k", k, 1)):
        if value < low:
            raise InvalidParameterError(f"{name} must be >= {low}, got {value}")
    if k % 2 == 0:
        raise InvalidParameterError(f"k must be odd, got {k}")
    check_lam(lam)
    stages = [CnnModule([make_layer(n_in, n_out) for n_in, n_out in _channel_plan(n_d, n_f)]) for _ in range(n_c)]
    return CascadeModel(stages, lam)


def _channel_plan(n_d: int, n_f: int) -> list:
    """(n_in, n_out) of each layer of a block."""
    return [(2, n_f)] + [(n_f, n_f)] * (n_d - 2) + [(n_f, 2)]


def check_kernel_fits(k: int, height: int, width: int) -> None:
    """Reject a kernel with taps that can never overlap an image of this size:
    a tap offset of (k-1)/2 or more rows or columns reads only zero padding."""
    if (k - 1) // 2 >= min(height, width):
        raise InvalidShapeError(
            f"kernel size k={k} is too large for a {height}x{width} image: "
            f"(k-1)/2 must be below {min(height, width)}"
        )


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
    return _assemble(n_c, n_d, n_f, k, lam, lambda n_in, n_out: he_init(rng, n_out, n_in, k, dtype=dtype))


def zero_model(n_c: int, n_d: int, n_f: int, k: int = 3, lam: float = math.inf, dtype=np.float32) -> CascadeModel:
    """All-parameters-zero cascade (identity behaviour on consistent inputs)."""
    return _assemble(
        n_c, n_d, n_f, k, lam,
        lambda n_in, n_out: ConvLayer(np.zeros((n_out, n_in, k, k), dtype=dtype), np.zeros(n_out, dtype=dtype)),
    )


def module_forward(module: CnnModule, x: np.ndarray, *, _keep_caches: bool = True):
    """Returns the block output and one ConvCache per layer, in layer order;
    no caches with ``_keep_caches=False``.

    The input is padded once. From there every activation is a padded-flat
    buffer, zero outside its image, which the ReLU and the next conv read
    whole.
    """
    p = (module.layers[0].kernel_size - 1) // 2
    h = pad_flat(x, p)
    caches = []
    for i, layer in enumerate(module.layers):
        if i:
            h, _ = relu_forward(h)
        if _keep_caches:
            caches.append(ConvCache(xp=h, p=p))
        h = conv_forward_padded(layer, h)
    return interior(h, p), caches


def module_backward(module: CnnModule, caches: list, grad: np.ndarray, *, need_grad_in: bool = True):
    """Returns (grad wrt module input, [(grad_w, grad_b) per layer in order]).

    With ``need_grad_in=False`` the first layer skips its input gradient and
    the first element is None.

    The output gradient is padded once. From there every gradient is a
    padded-flat buffer, zero outside its image, which the ReLU's backward and
    the next conv_backward_padded read whole.
    """
    if len(caches) != len(module.layers):
        raise InvalidStateError(f"cache holds {len(caches)} layer caches for {len(module.layers)} layers")
    p = (module.layers[0].kernel_size - 1) // 2
    g = pad_flat(grad, p)
    param_grads = [None] * len(module.layers)
    for i in range(len(module.layers) - 1, -1, -1):
        g, gw, gb = conv_backward_padded(module.layers[i], caches[i], g, need_grad_in=need_grad_in or i > 0)
        param_grads[i] = (gw, gb)
        if i:
            # layer i's input is the ReLU output
            g = relu_backward(ReluCache(caches[i].xp), g)
    return None if g is None else interior(g, p), param_grads


@dataclass(eq=False)
class CascadeCache:
    """What :func:`cascade_backward` reads of one forward pass: the block
    caches of each stage, the sample's DC constants, and the model that made
    it. A cache belongs to that model alone; its block caches hold that
    model's layer inputs, so no other model, even one of the same shapes,
    can take it."""

    stage_caches: list
    cfg: DcConfig
    model: CascadeModel


def cascade_forward(model: CascadeModel, meas: Measurements, *, _keep_caches: bool = True):
    """Run the cascade from the zero-filled image ``DcConfig.zero_fill``,
    cast to the model's precision.

    Returns the reconstruction and the cache for :func:`cascade_backward`;
    ``cache.cfg.zero_fill`` is the starting image. Inference passes
    ``_keep_caches=False``: every layer input is then freed once the next
    layer has read it, and the cache holds no stage caches, so
    :func:`cascade_backward` rejects it. A kernel too large for the image
    raises :class:`InvalidShapeError` (:func:`check_kernel_fits`).
    """
    check_kernel_fits(model.k, meas.mask.height, meas.mask.width)
    cfg = DcConfig(measured=meas, lam=model.lam)
    x = cfg.zero_fill.astype(model.dtype)
    stage_caches = []
    for stage in model.stages:
        h, caches = module_forward(stage, x.channels, _keep_caches=_keep_caches)
        r = residual_add(ComplexImage(h), x)
        x = dc_forward(r, cfg)
        if _keep_caches:
            stage_caches.append(caches)
    return x, CascadeCache(stage_caches, cfg, model)


def cascade_backward(model: CascadeModel, cache: CascadeCache, grad_out: ComplexImage) -> list:
    """Backpropagate through every stage; returns gradients aligned with
    ``model.parameters()`` (weights then bias, per layer, per stage)."""
    if cache.model is not model:
        raise InvalidStateError("cache was made by another model")
    if len(cache.stage_caches) != len(model.stages):
        raise InvalidStateError(f"cache holds {len(cache.stage_caches)} stage caches for {len(model.stages)} stages")
    out_shape = (2, cache.cfg.mask.height, cache.cfg.mask.width)
    if grad_out.channels.shape != out_shape:
        raise InvalidStateError(
            f"grad_out shape {grad_out.channels.shape} does not match forward output {out_shape}"
        )

    per_stage = [None] * len(model.stages)
    g = grad_out
    for si in range(len(model.stages) - 1, -1, -1):
        g = dc_backward(g, cache.cfg)
        # stage 0's input is the zero-filled image, which takes no gradient
        module_grad_in, param_grads = module_backward(
            model.stages[si], cache.stage_caches[si], g.channels, need_grad_in=si > 0
        )
        per_stage[si] = param_grads
        if si:
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

_CKPT_HEADER = struct.Struct("<4sBBd4II")
_CKPT_MAGIC = b"CSC1"
_CKPT_VERSION = 1


def _tensor_records(n_c: int, n_d: int):
    """(name, u16 name length + name bytes) per tensor, in CSC1 order."""
    for s in range(n_c):
        for i in range(n_d):
            for name in (f"stage{s}.conv{i}.weight", f"stage{s}.conv{i}.bias"):
                yield name, struct.pack("<H", len(name)) + name.encode()


def save_checkpoint(model: CascadeModel, path) -> None:
    """Write a CSC1 file to a temp file beside ``path``, then rename it over
    ``path``: a failed write leaves any existing checkpoint there intact.

    A model the header's one (n_d, n_f, k) cannot describe, such as one whose
    stages differ in depth, width or kernel size, raises InvalidShapeError,
    and one of mixed precisions or with a non-finite value, which
    :func:`load_checkpoint` would refuse, InvalidParameterError, before any
    file is opened."""
    params = model.parameters()
    k = model.k
    shapes = [s for n_in, n_out in _channel_plan(model.n_d, model.n_f) for s in ((n_out, n_in, k, k), (n_out,))]
    if [p.shape for p in params] != shapes * model.n_c:
        raise InvalidShapeError(
            f"the layers do not fit the one CSC1 header n_d={model.n_d}, n_f={model.n_f}, k={k} "
            "read off the first stage"
        )
    if len({p.dtype for p in params}) > 1:
        raise InvalidParameterError("mixed tensor precisions: a CSC1 file holds one")
    for (name, _), arr in zip(_tensor_records(model.n_c, model.n_d), params):
        if not np.isfinite(arr).all():
            raise InvalidParameterError(f"tensor {name} has non-finite values")
    infinite = model.lam == math.inf
    header = _CKPT_HEADER.pack(_CKPT_MAGIC, _CKPT_VERSION, infinite, 0.0 if infinite else model.lam,
                               model.n_c, model.n_d, model.n_f, k, len(params))
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(header)
            for (_, record), arr in zip(_tensor_records(model.n_c, model.n_d), params, strict=True):
                f.write(record)
                write_tensor(f, arr)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _read_exact(f, n: int) -> bytes:
    raw = f.read(n)
    if len(raw) != n:
        raise CheckpointFormatError("truncated checkpoint")
    return raw


def load_checkpoint(path) -> CascadeModel:
    """Read a CSC1 file through the builders' checks; the tensors must come in
    ``stage{s}.conv{i}.weight|bias`` order. Malformed content raises
    CheckpointFormatError naming ``path``."""
    with open(path, "rb") as f, naming_file(path, CheckpointFormatError):
        raw = f.read(_CKPT_HEADER.size)
        if raw[:4] != _CKPT_MAGIC:
            raise CheckpointFormatError("not a cascade checkpoint (bad magic)")
        if len(raw) != _CKPT_HEADER.size:
            raise CheckpointFormatError("truncated checkpoint")
        _, version, lam_mode, lam_value, n_c, n_d, n_f, k, count = _CKPT_HEADER.unpack(raw)
        if version != _CKPT_VERSION:
            raise CheckpointFormatError(f"unsupported checkpoint version {version}")
        if lam_mode not in (0, 1):
            raise CheckpointFormatError(f"bad lambda header (mode={lam_mode}, value={lam_value})")
        if count != 2 * n_c * n_d:
            raise CheckpointFormatError(f"inconsistent header (n_c={n_c}, n_d={n_d}, tensors={count})")
        # checked before _assemble plans n_c * n_d layers: a tensor takes at
        # least 12 bytes (u16 name length, CXT1 magic, code, rank, one dim)
        if 12 * count > os.fstat(f.fileno()).st_size - f.tell():
            raise CheckpointFormatError(f"truncated checkpoint ({count} tensors in header)")
        records = _tensor_records(n_c, n_d)

        def read_next(shape) -> np.ndarray:
            name, record = next(records)
            if _read_exact(f, len(record)) != record:
                raise CheckpointFormatError(f"expected tensor {name} next")
            arr = read_tensor(f)
            if arr.shape != shape:
                raise CheckpointFormatError(f"{name} has shape {arr.shape}, the header gives {shape}")
            if not np.isfinite(arr).all():
                raise CheckpointFormatError(f"tensor {name} has non-finite values")
            return arr

        def make_layer(n_in: int, n_out: int) -> ConvLayer:
            return ConvLayer(read_next((n_out, n_in, k, k)), read_next((n_out,)))

        model = _assemble(n_c, n_d, n_f, k, math.inf if lam_mode == 1 else lam_value, make_layer)
        if f.read(1):
            raise CheckpointFormatError("trailing bytes after last tensor")
        if len({p.dtype for p in model.parameters()}) > 1:
            raise CheckpointFormatError("mixed tensor precisions")
    return model


def reconstruct(model: CascadeModel, meas: Measurements) -> ComplexImage:
    """Zero-fill and run the cascade, keeping no caches (the inference entry point)."""
    return cascade_forward(model, meas, _keep_caches=False)[0]
