"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's vectorized code paths (and numpy.fft):
plain loops implementing the defining formulas, so agreement is meaningful.
The rest are copies of library code that a rewrite replaced, kept as
old-vs-new equivalence references.
"""

import cmath
import math
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from mricascade.errors import CheckpointFormatError, InvalidParameterError, InvalidShapeError
from mricascade.fourier import fft2_complex
from mricascade.layers import (
    ConvCache,
    ConvLayer,
    ReluCache,
    _column_bands,
    _correlate,
    _rows,
    conv_backward,
    conv_forward,
    interior,
    pad_flat,
    relu_backward,
)
from mricascade.tensorcore import ComplexImage, read_tensor


def naive_dft2(z: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Orthonormal 2D DFT by direct evaluation of the defining sum."""
    h, w = z.shape
    sign = 2j if inverse else -2j
    out = np.zeros((h, w), dtype=complex)
    for u in range(h):
        for v in range(w):
            acc = 0j
            for i in range(h):
                for j in range(w):
                    acc += z[i, j] * cmath.exp(sign * cmath.pi * (u * i / h + v * j / w))
            out[u, v] = acc
    return out / np.sqrt(h * w)


def naive_conv2d(weights: np.ndarray, bias: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 cross-correlation, quadruple loop."""
    n_out, n_in, k, _ = weights.shape
    _, h, w = x.shape
    p = (k - 1) // 2
    out = np.zeros((n_out, h, w), dtype=x.dtype)
    for o in range(n_out):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for c in range(n_in):
                    for di in range(k):
                        for dj in range(k):
                            ii, jj = i + di - p, j + dj - p
                            if 0 <= ii < h and 0 <= jj < w:
                                acc += weights[o, c, di, dj] * x[c, ii, jj]
                out[o, i, j] = acc + bias[o]
    return out


# A cascade block and its gradients as shifted adds over the zero-padded image,
# in float64: one product per kernel tap and layer, with none of
# mricascade.layers' layouts, bands or routes. The independent reference for
# mricascade.layers.conv_forward_padded and for
# mricascade.cascade.module_forward/module_backward.


def _shifted_windows(x: np.ndarray, k: int):
    """Yield (di, dj, view) with view[c, i, j] = x[c, i + di - p, j + dj - p], zero outside x."""
    c, h, w = x.shape
    p = (k - 1) // 2
    xp = np.zeros((c, h + 2 * p, w + 2 * p))
    xp[:, p : p + h, p : p + w] = x
    for di in range(k):
        for dj in range(k):
            yield di, dj, xp[:, di : di + h, dj : dj + w]


def shifted_add_conv2d(weights: np.ndarray, bias: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 cross-correlation plus bias, in float64."""
    w64 = weights.astype(np.float64)
    out = np.zeros((weights.shape[0], *x.shape[1:])) + bias.astype(np.float64)[:, None, None]
    for di, dj, win in _shifted_windows(x.astype(np.float64), weights.shape[2]):
        out += np.einsum("oc,chw->ohw", w64[:, :, di, dj], win)
    return out


def shifted_add_block(layers: list, x: np.ndarray, grad_out: np.ndarray):
    """A block's output, its input gradient and [(grad_w, grad_b) per layer]
    for the upstream gradient ``grad_out``, in float64."""
    inputs = [x.astype(np.float64)]
    h = shifted_add_conv2d(layers[0].weights, layers[0].bias, inputs[0])
    for layer in layers[1:]:
        inputs.append(np.maximum(h, 0.0))
        h = shifted_add_conv2d(layer.weights, layer.bias, inputs[-1])
    g = grad_out.astype(np.float64)
    param_grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        w64, k = layers[i].weights.astype(np.float64), layers[i].kernel_size
        p = (k - 1) // 2
        c, hh, ww = inputs[i].shape
        grad_w = np.zeros_like(w64)
        grad_xp = np.zeros((c, hh + 2 * p, ww + 2 * p))
        for di, dj, win in _shifted_windows(inputs[i], k):
            grad_w[:, :, di, dj] = np.einsum("ohw,chw->oc", g, win)
            grad_xp[:, di : di + hh, dj : dj + ww] += np.einsum("oc,ohw->chw", w64[:, :, di, dj], g)
        param_grads[i] = (grad_w, g.sum(axis=(1, 2)))
        g = grad_xp[:, p : p + hh, p : p + ww]
        if i:
            # layer i's input is a ReLU output, positive exactly where the ReLU input is
            g = g * (inputs[i] > 0)
    return h, g, param_grads


# Row-major im2col convolution ([H*W, C*k*k] columns, cached for the backward
# pass), kept verbatim from before the channel-major rewrite of
# mricascade.layers as the old-vs-new equivalence reference.


@dataclass(eq=False)
class RowMajorConvCache:
    cols: np.ndarray  # [H*W, n_in*k*k]
    in_shape: tuple


def _rowmajor_im2col(x: np.ndarray, k: int) -> np.ndarray:
    c, h, w = x.shape
    p = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    win = sliding_window_view(xp, (k, k), axis=(1, 2))  # [C, H, W, k, k]
    return win.transpose(1, 2, 0, 3, 4).reshape(h * w, c * k * k)


def rowmajor_conv_forward(layer, x: np.ndarray):
    c, h, w = x.shape
    k = layer.kernel_size
    cols = _rowmajor_im2col(x, k)
    wmat = layer.weights.reshape(layer.n_out, -1)
    out = cols @ wmat.T  # [H*W, n_out]
    out = out.T.reshape(layer.n_out, h, w) + layer.bias[:, None, None]
    return out, RowMajorConvCache(cols=cols, in_shape=x.shape)


def rowmajor_conv_backward(layer, cache: RowMajorConvCache, grad_out: np.ndarray):
    c, h, w = cache.in_shape
    k = layer.kernel_size
    p = (k - 1) // 2
    go = grad_out.reshape(layer.n_out, h * w)

    grad_b = grad_out.sum(axis=(1, 2))
    grad_w = (go @ cache.cols).reshape(layer.weights.shape)

    wmat = layer.weights.reshape(layer.n_out, -1)
    dcols = (go.T @ wmat).reshape(h, w, c, k, k)
    grad_xp = np.zeros((c, h + 2 * p, w + 2 * p), dtype=grad_out.dtype)
    for di in range(k):
        for dj in range(k):
            grad_xp[:, di : di + h, dj : dj + w] += dcols[:, :, :, di, dj].transpose(2, 0, 1)
    grad_in = grad_xp[:, p : p + h, p : p + w]
    return grad_in, grad_w, grad_b


# Channel-major conv with [C*k*k, H*W] columns reshaped from a 6-D strided
# window view of the padded image, kept verbatim from before mricascade.layers
# built its columns from a padded-flat layout, as the old-vs-new equivalence
# reference. It routes to the thinner side as the library does.


def _windowed_im2col(x: np.ndarray, k: int) -> np.ndarray:
    c, h, w = x.shape
    p = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    return sliding_window_view(xp, (h, w), axis=(1, 2)).reshape(c * k * k, h * w)


def _windowed_col2im(dcols: np.ndarray) -> np.ndarray:
    c, k, _, h, w = dcols.shape
    p = (k - 1) // 2
    xp = np.zeros((c, h + 2 * p, w + 2 * p), dtype=dcols.dtype)
    for di in range(k):
        for dj in range(k):
            xp[:, di : di + h, dj : dj + w] += dcols[:, di, dj]
    return xp[:, p : p + h, p : p + w]


def _windowed_correlate(w4: np.ndarray, x: np.ndarray) -> np.ndarray:
    n_out, n_in, k, _ = w4.shape
    _, h, w = x.shape
    if n_in <= n_out:
        return (w4.reshape(n_out, -1) @ _windowed_im2col(x, k)).reshape(n_out, h, w)
    wrows = w4[:, :, ::-1, ::-1].transpose(0, 2, 3, 1).reshape(n_out * k * k, n_in)
    return _windowed_col2im((wrows @ x.reshape(n_in, h * w)).reshape(n_out, k, k, h, w))


def windowed_conv_forward(layer, x: np.ndarray) -> np.ndarray:
    return _windowed_correlate(layer.weights, x) + layer.bias[:, None, None]


def windowed_conv_backward(layer, x: np.ndarray, grad_out: np.ndarray):
    c, h, w = x.shape
    n_out, k = layer.n_out, layer.kernel_size
    grad_b = grad_out.sum(axis=(1, 2))
    if c <= n_out:
        grad_w = grad_out.reshape(n_out, h * w) @ _windowed_im2col(x, k).T
        grad_w = grad_w.reshape(layer.weights.shape)
    else:
        flipped = (_windowed_im2col(grad_out, k) @ x.reshape(c, h * w).T).reshape(n_out, k, k, c)
        grad_w = np.ascontiguousarray(flipped[:, ::-1, ::-1].transpose(0, 3, 1, 2))
    grad_in = _windowed_correlate(layer.weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), grad_out)
    return grad_in, grad_w, grad_b


def dct2_8x8_coefficients(image: np.ndarray) -> np.ndarray:
    """Type-II DCT coefficients of every disjoint 8x8 block, flattened."""
    n = 8
    c = np.zeros((n, n))
    for u in range(n):
        for i in range(n):
            c[u, i] = np.cos(np.pi * (2 * i + 1) * u / (2 * n))
    h, w = image.shape
    coeffs = []
    for bi in range(0, h - n + 1, n):
        for bj in range(0, w - n + 1, n):
            block = image[bi : bi + n, bj : bj + n]
            coeffs.append((c @ block @ c.T).ravel())
    return np.concatenate(coeffs)


# The interleaved cascade block from before a block kept one cache per layer:
# a conv cache for every layer and, between layers, a ReLU cache holding the
# pre-activation, walked backwards with a running index. The ReLU is inlined
# as it was then (the cache holds its input); kept as the old-vs-new
# equivalence reference for mricascade.cascade.module_forward/module_backward.


def interleaved_module_forward(module, x: np.ndarray, _keep_caches: bool = True):
    # always keeps its caches, whatever _keep_caches asks
    h = x
    caches = []
    for layer in module.layers[:-1]:
        h, c = conv_forward(layer, h)
        caches.append(c)
        caches.append(ReluCache(x=h))
        h = np.maximum(h, 0)
    h, c = conv_forward(module.layers[-1], h)
    caches.append(c)
    return h, caches


def interleaved_module_backward(module, caches: list, grad: np.ndarray, need_grad_in: bool = True):
    # always computes the input gradient, whatever need_grad_in asks
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


# The cascade block from before its activations stayed padded-flat from its
# first layer to its last: every layer pads its input, correlates it one band
# of columns at a time, trims the junk columns and adds the bias in a copy, and
# the ReLU is np.maximum. The narrowing route multiplies a widened copy of the
# input. Kept as the old-vs-new equivalence reference for
# mricascade.cascade.module_forward. Its caches are the layer inputs padded by
# np.pad into the layout mricascade.layers.ConvCache holds.


def _unpadded_widen(x: np.ndarray, p: int) -> np.ndarray:
    c, h, w = x.shape
    xw = np.zeros((c, h, w + 2 * p), dtype=x.dtype)
    xw[:, :, :w] = x
    return xw.reshape(c, -1)


def _unpadded_column_bands(x: np.ndarray, k: int):
    c, h, w = x.shape
    p = (k - 1) // 2
    wp = w + 2 * p
    n = h * wp
    xp = np.zeros((c, h + 2 * p + 1, wp), dtype=x.dtype)
    xp[:, p : p + h, p : p + w] = x
    xf = xp.reshape(c, -1)
    rows = c * k * k
    width = min(n, max(64, (1 << 20) // (rows * x.itemsize) // 64 * 64))
    buf = np.empty(rows * width, dtype=x.dtype)
    for a in range(0, n, width):
        b = min(a + width, n)
        cols = buf[: rows * (b - a)].reshape(c, k * k, b - a)
        for di in range(k):
            for dj in range(k):
                s = a + di * wp + dj
                cols[:, di * k + dj] = xf[:, s : s + b - a]
        yield a, b, cols.reshape(rows, b - a)


def _unpadded_scatter(w4: np.ndarray, xw: np.ndarray, w: int) -> np.ndarray:
    n_out, n_in, k, _ = w4.shape
    p = (k - 1) // 2
    wp = w + 2 * p
    n = xw.shape[1]
    wrows = w4[:, :, ::-1, ::-1].transpose(0, 2, 3, 1).reshape(n_out * k * k, n_in)
    prods = (wrows @ xw).reshape(n_out, k * k, n)
    out = np.zeros((n_out, n + (2 * p + 1) * wp), dtype=prods.dtype)
    for di in range(k):
        for dj in range(k):
            s = di * wp + dj
            out[:, s : s + n] += prods[:, di * k + dj]
    return out[:, p * wp + p :][:, :n].reshape(n_out, -1, wp)[:, :, :w]


def _unpadded_correlate(w4: np.ndarray, x: np.ndarray) -> np.ndarray:
    n_out, n_in, k, _ = w4.shape
    _, h, w = x.shape
    p = (k - 1) // 2
    if n_in > n_out:
        return _unpadded_scatter(w4, _unpadded_widen(x, p), w)
    w2 = w4.reshape(n_out, -1)
    out = np.empty((n_out, h * (w + 2 * p)), dtype=np.result_type(w4, x))
    for a, b, cols in _unpadded_column_bands(x, k):
        np.matmul(w2, cols, out=out[:, a:b])
    return out.reshape(n_out, h, w + 2 * p)[:, :, :w]


def unpadded_module_forward(module, x: np.ndarray, _keep_caches: bool = True):
    # always keeps its caches, whatever _keep_caches asks
    h = x
    caches = []
    for i, layer in enumerate(module.layers):
        p = (layer.kernel_size - 1) // 2
        if i:
            h = np.maximum(h, 0)
        caches.append(ConvCache(xp=np.pad(h, ((0, 0), (p, p + 1), (p, p))), p=p))
        h = _unpadded_correlate(layer.weights, h) + layer.bias[:, None, None]
    return h, caches


# The band builder from before each band of columns was one copy from a
# strided window: it fills a band with k*k slice copies, one per kernel tap.
# Kept verbatim, with the band budget passed in, as the old-vs-new equivalence
# reference for mricascade.layers._column_bands.


def slice_loop_column_bands(xp: np.ndarray, k: int, band_bytes: int):
    c, hp, wp = xp.shape
    p = (k - 1) // 2
    n = (hp - 2 * p - 1) * wp
    xf = xp.reshape(c, -1)
    rows = c * k * k
    width = min(n, max(64, band_bytes // (rows * xp.itemsize) // 64 * 64))
    buf = np.empty(rows * width, dtype=xp.dtype)
    for a in range(0, n, width):
        b = min(a + width, n)
        cols = buf[: rows * (b - a)].reshape(c, k * k, b - a)
        for di in range(k):
            for dj in range(k):
                s = a + di * wp + dj
                cols[:, di * k + dj] = xf[:, s : s + b - a]
        yield a, b, cols.reshape(rows, b - a)


# The backward pass of a cascade block from before its gradients stayed
# padded-flat: every layer pads its output gradient, sums its weight gradient
# band by band as lhs @ cols.T with the gradient's rows always on the left,
# and trims its input gradient, and the ReLU backward multiplies that trimmed
# gradient by where the cached ReLU output, a view, is positive. Kept as the
# old-vs-new equivalence reference for mricascade.cascade.module_backward.


def _lhs_dot_columns(lhs: np.ndarray, xp: np.ndarray, k: int) -> np.ndarray:
    acc = np.zeros((lhs.shape[0], xp.shape[0] * k * k), dtype=np.result_type(lhs, xp))
    for a, b, cols in _column_bands(xp, k):
        acc += lhs[:, a:b] @ cols.T
    return acc


def trimmed_conv_backward(layer, cache: ConvCache, grad_out: np.ndarray, need_grad_in: bool = True):
    n_out, k = layer.n_out, layer.kernel_size
    p = (k - 1) // 2
    c = cache.xp.shape[0]
    grad_b = grad_out.sum(axis=(1, 2))
    gp = pad_flat(grad_out, p)
    if c <= n_out:
        grad_w = _lhs_dot_columns(_rows(gp, p), cache.xp, k).reshape(layer.weights.shape)
    else:
        flipped = _lhs_dot_columns(_rows(cache.xp, p), gp, k).reshape(c, n_out, k, k)
        grad_w = np.ascontiguousarray(flipped[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    if not need_grad_in:
        return None, grad_w, grad_b
    w_adj = layer.weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    return interior(_correlate(w_adj, gp), p), grad_w, grad_b


def trimmed_module_backward(module, caches: list, grad: np.ndarray, need_grad_in: bool = True):
    param_grads = [None] * len(module.layers)
    for i in range(len(module.layers) - 1, -1, -1):
        grad, gw, gb = trimmed_conv_backward(module.layers[i], caches[i], grad, need_grad_in or i > 0)
        param_grads[i] = (gw, gb)
        if i:
            grad = relu_backward(ReluCache(x=caches[i].x), grad)
    return grad, param_grads


# The data-consistency layer from before it was written as its Jacobian plus
# the weighted zero-fill: each pass replaces (or blends) the sampled k-space
# lines with the measurements, in a noiseless and a finite-lambda branch.
# Kept as the old-vs-new equivalence reference for mricascade.dclayer.


def line_replacement_dc_forward(x, cfg):
    k = fft2_complex(x.to_complex())
    lines = cfg.mask.phase_lines
    y = cfg.measured.kspace.to_complex()
    if cfg.lam == math.inf:
        k[lines, :] = y[lines, :]
    else:
        k[lines, :] = (k[lines, :] + cfg.lam * y[lines, :]) / (1.0 + cfg.lam)
    return ComplexImage.from_complex(fft2_complex(k, inverse=True), dtype=x.dtype)


def line_replacement_dc_backward(grad_out, cfg):
    k = fft2_complex(grad_out.to_complex())
    lines = cfg.mask.phase_lines
    if cfg.lam == math.inf:
        k[lines, :] = 0.0
    else:
        k[lines, :] /= 1.0 + cfg.lam
    return ComplexImage.from_complex(fft2_complex(k, inverse=True), dtype=grad_out.dtype)


# The data-consistency layer from before it was written as two real matrix
# products per mask: its linear part is a complex128 round trip through the
# 2-D DFT with the sampled lines scaled by 1 - w, and the weighted zero-fill
# is added in complex128 before the cast to the input's dtype. Kept as the
# old-vs-new equivalence reference for mricascade.dclayer.


def complex_jacobian(img, cfg):
    """``F^H D F img`` as a complex128 array: sampled lines scaled by 1 - w."""
    k = fft2_complex(img.to_complex())
    k[cfg.mask.phase_lines, :] *= 1.0 - cfg.weight
    return fft2_complex(k, inverse=True)


def complex_dc_forward(x, cfg):
    measured_part = cfg.weight * cfg.zero_fill.to_complex()
    return ComplexImage.from_complex(complex_jacobian(x, cfg) + measured_part, dtype=x.dtype)


def complex_dc_backward(grad_out, cfg):
    return ComplexImage.from_complex(complex_jacobian(grad_out, cfg), dtype=grad_out.dtype)


# dclayer.dc_forward from when DcConfig kept one weighted zero-fill per
# precision: the zero-fill widened to float64, scaled by w, cast to x's dtype,
# and added to the linear part in a new array. Kept as the old-vs-new
# equivalence reference for DcConfig._measured_part.


def per_dtype_dc_forward(x, cfg):
    h, w = cfg.mask.height, cfg.mask.width
    x_u = cfg.zero_fill.channels.astype(np.float64).reshape(2 * h, w)
    measured_part = (cfg.weight * x_u).astype(x.dtype, copy=False)
    xs = x.channels.reshape(2 * h, w)
    m = cfg.mask.operator(x.dtype)
    return ComplexImage((xs - cfg.weight * (m.T @ (m @ xs)) + measured_part).reshape(x.channels.shape))


# The CSC1 loader from before checkpoints were built through
# mricascade.cascade._assemble: it reads every tensor into a dict keyed by
# name, then looks the layers up by name in a channel plan of its own. It
# returns the header's hyperparameters beside the layers, as the model then
# stored them. Kept as the old-vs-new equivalence reference for
# mricascade.cascade.load_checkpoint.


@dataclass(eq=False)
class NameKeyedCheckpoint:
    stages: list  # per stage, the list of ConvLayers
    n_c: int
    n_d: int
    n_f: int
    k: int
    lam: float

    def parameters(self) -> list:
        return [p for layers in self.stages for layer in layers for p in (layer.weights, layer.bias)]


def _read_exact(f, n: int, path) -> bytes:
    raw = f.read(n)
    if len(raw) != n:
        raise CheckpointFormatError(f"{path}: truncated checkpoint")
    return raw


def name_keyed_load_checkpoint(path) -> NameKeyedCheckpoint:
    with open(path, "rb") as f:
        if f.read(4) != b"CSC1":
            raise CheckpointFormatError(f"{path}: not a cascade checkpoint (bad magic)")
        version, lam_mode = struct.unpack("<BB", _read_exact(f, 2, path))
        if version != 1:
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
    plan = [(2, n_f)] + [(n_f, n_f)] * (n_d - 2) + [(n_f, 2)]
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
        stages.append(layers)
    return NameKeyedCheckpoint(stages, n_c=n_c, n_d=n_d, n_f=n_f, k=k, lam=lam)
