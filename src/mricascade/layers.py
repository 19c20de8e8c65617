"""CNN building blocks with explicit forward and backward passes.

Convolution is the deep-learning cross-correlation (no kernel flip) with
stride 1 and zero same-padding, so spatial dims are preserved; that is what
the residual connections and the data-consistency step require. Every
correlation, forward or backward, copies only its thinner side k*k times: it
gathers the shifted input into channel-major im2col columns when the input has
no more channels than the output, and otherwise multiplies first and scatters
the k*k shifted products back through col2im. The conv cache keeps only the
layer input, in the padded-flat layout below, and the ReLU cache only the ReLU
output, which is positive exactly where the input is; inside a cascade block
the two are the same array, and the backward never writes into it.
conv_backward_padded can skip the input gradient, which a cascade's very
first layer never needs.

Every correlation reads a padded-flat layout. An input [C, H, W] is held
zero-padded by p = (k-1)/2 on every side, plus one more zero row, as a
contiguous [C, H+2p+1, Wp] array with Wp = W + 2p, so its rows lie end to end.
Tap (di, dj) is then one contiguous slice of H*Wp values starting at
di*Wp + dj. So the k*k taps of every channel form one read-only strided window
[C, k, k, columns] over the flat rows, and im2col is one copy of that window per
band of columns; col2im is k*k slice adds. The extra zero row keeps the last
tap's slice in bounds. Each image row is followed by 2p junk columns, which
read the padding and the start of the next row. A correlation's output is a
padded-flat buffer of the same shape, written from offset p*Wp + p on, so each
output value lands where the next layer reads it and the junk columns land on
the next layer's padding. Where junk would be
summed, in the weight gradient's GEMM over the spatial axis and in the
products col2im scatters, the operand it meets is the slice of a padded-flat
buffer from its first image value on: the image with 2p zero columns after
each row, so the junk adds exact zeros.

One rule holds for every padded-flat buffer a layer function returns: it is
zero outside its image, junk columns included, so it is the next layer's
padded input or padded gradient as it stands. _zero_border is the one place
that rule is enforced, in conv_forward_padded and conv_backward_padded. The
raw correlation leaves its border undefined: the gathering route writes only
its rows, into np.empty, and the junk columns hold finite values.

Each op has one implementation, and the [C, H, W] functions are thin wrappers
around it. conv_forward pads its input, calls conv_forward_padded, which adds
the bias in place over the output rows before zeroing the border, and returns
the interior as a view. conv_backward pads grad_out, calls
conv_backward_padded, which reads the output gradient in its cache's layout
and returns the input gradient in that layout, and returns the interior.
relu_forward and relu_backward are elementwise, so they take a padded-flat
buffer as they take an image: max(0, 0) keeps a zero border zero, and the
backward multiplies the gradient by where the cached ReLU output is positive,
which keeps the gradient's zero border zero. A cascade block runs these same
functions on its padded-flat buffers, so the per-layer tests and gradcheck
exercise the code the cascade runs.

The columns are never built whole. They are built one band of consecutive flat
output columns at a time, into one buffer that each band refills. A band is at
least 64 columns wide, so the buffer holds at most max(_BAND_BYTES,
C*k*k*64*itemsize) bytes: 1.3 MB for 64 channels at k=9 in float32. A
gathering correlation writes each band's GEMM straight into its slice of the
output, and a weight gradient sums the products of its bands. Bands need not
end at a row boundary. A weight gradient's GEMM puts whichever operand has
more rows on the left, the columns or the rows they meet, because BLAS runs it
faster that way, and transposes its sum once at the end.

A gathering band's product, and the product a scattering correlation adds
back, is run by _matmul_columns in slices of its columns when its operands are
float32, it sums at most 448 products per output (K) and its width is a
multiple of 64. Each slice is a multiple of 64 columns and at most 10**6
multiply-adds, a size OpenBLAS runs on its small-matrix kernel without packing
its operands, 1.4-1.8x faster than the packed kernel at the desk shapes. The
slices keep the bits of one call: splitting the columns changes no output's
products, the packed kernel sums K <= 448 in one block as the small kernel
does, and no slice ends in a column tail narrower than 64, where the small
kernel sums in another order. Any other product is one call: a float64 one,
and every product of the full-scale 64-channel model at 80x80, whose K is 576
or whose width, 80*82 flat columns, is no multiple of 64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidShapeError
from .tensorcore import ComplexImage, Rng, normal_draw


@dataclass(eq=False)
class ConvLayer:
    # weights: [n_out, n_in, k, k], bias: [n_out]; stride 1, same-padding
    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w, b = self.weights, self.bias
        if w.ndim != 4 or w.shape[2] != w.shape[3]:
            raise InvalidShapeError(f"weights must be [n_out, n_in, k, k], got {w.shape}")
        if w.shape[2] % 2 == 0:
            raise InvalidParameterError(f"kernel size must be odd, got {w.shape[2]}")
        if b.shape != (w.shape[0],):
            raise InvalidShapeError(f"bias must be [n_out]={w.shape[0]}, got {b.shape}")

    @property
    def n_out(self) -> int:
        return self.weights.shape[0]

    @property
    def n_in(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.weights.shape[2]


def he_init(rng: Rng, n_out: int, n_in: int, k: int, dtype=np.float32) -> ConvLayer:
    """Weights ~ Normal(0, sqrt(2 / fan_in)) with fan_in = n_in*k*k, zero bias."""
    if k % 2 == 0 or k < 1:
        raise InvalidParameterError(f"kernel size must be odd and positive, got {k}")
    std = float(np.sqrt(2.0 / (n_in * k * k)))
    weights = normal_draw(rng, (n_out, n_in, k, k), std, dtype=dtype)
    return ConvLayer(weights=weights, bias=np.zeros(n_out, dtype=dtype))


@dataclass(eq=False)
class ConvCache:
    xp: np.ndarray  # [n_in, H+2p+1, W+2p]: the layer input, padded-flat, as conv_backward reads it
    p: int  # its padding

    @property
    def x(self) -> np.ndarray:
        """The [n_in, H, W] layer input, a view of ``xp``."""
        return interior(self.xp, self.p)


@dataclass(eq=False)
class ReluCache:
    x: np.ndarray  # the ReLU output, positive exactly where the ReLU input is


def pad_flat(x: np.ndarray, p: int) -> np.ndarray:
    """x [C, H, W] in the padded-flat layout [C, H+2p+1, W+2p], zero outside the image."""
    c, h, w = x.shape
    xp = np.zeros((c, h + 2 * p + 1, w + 2 * p), dtype=x.dtype)
    xp[:, p : p + h, p : p + w] = x
    return xp


def interior(xp: np.ndarray, p: int) -> np.ndarray:
    """The [C, H, W] image held in a padded-flat buffer, as a view."""
    return xp[:, p : xp.shape[1] - p - 1, p : xp.shape[2] - p]


def _rows(xp: np.ndarray, p: int) -> np.ndarray:
    """[C, H*Wp] view of a contiguous padded-flat buffer from its first image
    value on: each image row followed by the 2p border values that separate it
    from the next, its junk columns."""
    c, hp, wp = xp.shape
    return xp.reshape(c, -1)[:, p * wp + p :][:, : (hp - 2 * p - 1) * wp]


# bytes of one band of conv columns: half of a 2 MiB L2, so a band and the
# weights it meets stay in cache through its GEMM; the 64-column floor of a
# band makes it C*k*k*64*itemsize when that is larger
_BAND_BYTES = 1 << 20


def _column_bands(xp: np.ndarray, k: int):
    """Yield (a, b, cols): the im2col columns a..b of the padded-flat xp, one band at a time.

    cols is [C*k*k, b-a]: row (c, di, dj) is channel c shifted by (di - p, dj - p)
    over flat output columns a..b of [H, Wp], each image row followed by 2p junk
    columns. Every band is a view of one buffer that the next band overwrites,
    filled by one copy from its slice of one read-only strided window [C, k, k,
    H*Wp] of the flat rows: tap (di, dj) of channel c starts di*Wp + dj values
    after the band's first column, and the extra zero row keeps every read
    inside channel c's row.
    """
    c, hp, wp = xp.shape
    p = (k - 1) // 2
    n = (hp - 2 * p - 1) * wp
    xf = xp.reshape(c, -1)
    s_c, s_q = xf.strides
    rows = c * k * k
    # at least 64 and a multiple of 64 columns: a forward GEMM, whose bands split
    # the output columns, then sums every output column in the order one GEMM
    # over all columns would (bands of 16 or 164 columns change the last bits of
    # the output). _dot_columns's bands split the summed axis instead, so there
    # the band width does change the last bits.
    width = min(n, max(64, _BAND_BYTES // (rows * xp.itemsize) // 64 * 64))
    buf = np.empty(rows * width, dtype=xp.dtype)
    window = np.lib.stride_tricks.as_strided(
        xf, shape=(c, k, k, n), strides=(s_c, wp * s_q, s_q, s_q), writeable=False
    )
    for a in range(0, n, width):
        b = min(a + width, n)
        cols = buf[: rows * (b - a)].reshape(c, k, k, b - a)
        cols[...] = window[..., a:b]
        yield a, b, cols.reshape(rows, b - a)


# OpenBLAS's float32 GEMM runs a product of at most this many multiply-adds
# on its small-matrix kernel, which reads its operands where they lie instead
# of packing them first (scipy-openblas 0.3.31, SkylakeX kernels). Desk-scale
# conv products sit just above it: on one thread [16,144]@[144,384] ran at
# 100-150 GFLOP/s, and [16,144]@[144,448], packed, at 70-90.
_SMALL_GEMM_MACS = 10**6
# the packed kernel sums the K axis in blocks of this many
_SMALL_GEMM_MAX_K = 448


def _matmul_columns(lhs: np.ndarray, rhs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = lhs @ rhs, in slices of rhs's columns sized for the small-matrix kernel.

    Each slice is a multiple of 64 columns and at most _SMALL_GEMM_MACS
    multiply-adds. Only float32 operands with K <= _SMALL_GEMM_MAX_K and a
    width that is a multiple of 64 are sliced, so the slices give the bits of
    one call (see the module docstring); any other product is one call.
    """
    m, k = lhs.shape
    n = rhs.shape[1]
    step = _SMALL_GEMM_MACS // (m * k) // 64 * 64
    if not (step and lhs.dtype == rhs.dtype == np.float32 and k <= _SMALL_GEMM_MAX_K and n % 64 == 0):
        return np.matmul(lhs, rhs, out=out)
    for a in range(0, n, step):
        np.matmul(lhs, rhs[:, a : a + step], out=out[:, a : a + step])
    return out


def _dot_columns(lhs: np.ndarray, xp: np.ndarray, k: int) -> np.ndarray:
    # lhs [R, H*Wp] times the transposed columns of xp: [R, C*k*k], summed band
    # by band. BLAS runs this GEMM faster with the operand of more rows on the
    # left, so columns of at least R rows go first and the sum is transposed
    # once at the end; each entry sums the same products in the same order. The
    # sum starts from the first band's product, so one band costs one GEMM.
    cols_left = xp.shape[0] * k * k >= lhs.shape[0]
    acc = None
    for a, b, cols in _column_bands(xp, k):
        prod = cols @ lhs[:, a:b].T if cols_left else lhs[:, a:b] @ cols.T
        acc = prod if acc is None else np.add(acc, prod, out=acc)
    return acc.T if cols_left else acc


def _scatter(w4: np.ndarray, xw: np.ndarray, wp: int) -> np.ndarray:
    """Correlation of the rows xw [n_in, H*Wp] of a padded-flat input with w4 [n_out, n_in, k, k].

    Multiplies first, then adds the k*k shifted products back: row (o, di, dj)
    of the flipped kernel's product goes to offset di*Wp + dj of the
    padded-flat output, which is returned whole.
    """
    n_out, n_in, k, _ = w4.shape
    p = (k - 1) // 2
    n = xw.shape[1]
    wrows = w4[:, :, ::-1, ::-1].transpose(0, 2, 3, 1).reshape(n_out * k * k, n_in)
    prods = np.empty((n_out * k * k, n), dtype=np.result_type(wrows, xw))
    prods = _matmul_columns(wrows, xw, prods).reshape(n_out, k * k, n)
    out = np.zeros((n_out, n // wp + 2 * p + 1, wp), dtype=prods.dtype)
    flat = out.reshape(n_out, -1)
    for di in range(k):
        for dj in range(k):
            s = di * wp + dj
            flat[:, s : s + n] += prods[:, di * k + dj]
    return out


def _correlate(w4: np.ndarray, xp: np.ndarray) -> np.ndarray:
    """Same-padded stride-1 cross-correlation of the padded-flat xp with w4 [n_out, n_in, k, k].

    Returns a padded-flat [n_out, H+2p+1, W+2p] buffer whose _rows hold the
    result, junk columns included; its other values are undefined.
    """
    n_out, n_in, k, _ = w4.shape
    p = (k - 1) // 2
    if n_in > n_out:
        return _scatter(w4, _rows(xp, p), xp.shape[2])
    w2 = w4.reshape(n_out, -1)
    out = np.empty((n_out, *xp.shape[1:]), dtype=np.result_type(w4, xp))
    rows = _rows(out, p)
    for a, b, cols in _column_bands(xp, k):
        _matmul_columns(w2, cols, rows[:, a:b])
    return out


def _zero_border(buf: np.ndarray, p: int) -> np.ndarray:
    """Zero a padded-flat buffer outside its image, junk columns included, in place."""
    buf[:, :p] = 0
    buf[:, buf.shape[1] - p - 1 :] = 0
    buf[:, :, :p] = 0
    buf[:, :, buf.shape[2] - p :] = 0
    return buf


def conv_forward(layer: ConvLayer, x: np.ndarray):
    """Same-padded stride-1 cross-correlation plus per-channel bias.

    Returns the [n_out, H, W] output, a view of conv_forward_padded's buffer,
    and the cache for the backward pass.
    """
    if x.ndim != 3 or x.shape[0] != layer.n_in:
        raise InvalidShapeError(
            f"input must be [{layer.n_in}, H, W], got {getattr(x, 'shape', None)}"
        )
    p = (layer.kernel_size - 1) // 2
    xp = pad_flat(x, p)
    return interior(conv_forward_padded(layer, xp), p), ConvCache(xp=xp, p=p)


def conv_forward_padded(layer: ConvLayer, xp: np.ndarray) -> np.ndarray:
    """conv_forward from one padded-flat buffer to the next, with no cache.

    The output's rows get the bias in place, and then its border is zeroed,
    because it is the next layer's padding.
    """
    p = (layer.kernel_size - 1) // 2
    out = _correlate(layer.weights, xp)
    rows = _rows(out, p)
    rows += layer.bias[:, None]
    return _zero_border(out, p)


def _check_cache(layer: ConvLayer, cache: ConvCache) -> int:
    """The layer's padding, once the cache is checked to be this layer's input."""
    k = layer.kernel_size
    p = (k - 1) // 2
    if cache.xp.shape[0] != layer.n_in:
        raise InvalidShapeError(
            f"cache holds a {cache.xp.shape[0]}-channel input, layer takes {layer.n_in} channels"
        )
    if cache.p != p:
        raise InvalidShapeError(f"cache is padded by {cache.p}, a {k}x{k} kernel takes {p}")
    return p


def conv_backward(layer: ConvLayer, cache: ConvCache, grad_out: np.ndarray):
    """Exact gradients of conv_forward: returns (grad_in, grad_w, grad_b)."""
    p = _check_cache(layer, cache)
    _, h, w = cache.x.shape
    if grad_out.shape != (layer.n_out, h, w):
        raise InvalidShapeError(
            f"grad_out must be [{layer.n_out}, {h}, {w}], got {grad_out.shape}"
        )
    grad_in, grad_w, grad_b = conv_backward_padded(layer, cache, pad_flat(grad_out, p))
    return interior(grad_in, p), grad_w, grad_b


def conv_backward_padded(layer: ConvLayer, cache: ConvCache, gp: np.ndarray, *, need_grad_in: bool = True):
    """conv_backward from one padded-flat gradient to the next.

    ``gp`` is the output gradient in the layout of ``cache.xp``, zero outside
    the image. The returned grad_in is in that layout too, with its border
    zeroed, so it is the next layer's padded output gradient as it stands.
    """
    p = _check_cache(layer, cache)
    n_out, k = layer.n_out, layer.kernel_size
    c, hp, wp = cache.xp.shape
    if gp.shape != (n_out, hp, wp):
        raise InvalidShapeError(
            f"padded grad_out must be [{n_out}, {hp}, {wp}], got {gp.shape}"
        )

    grad_b = interior(gp, p).sum(axis=(1, 2))
    # the zero border in the rows of one operand meets the junk columns of the
    # other's bands
    if c <= n_out:
        grad_w = _dot_columns(_rows(gp, p), cache.xp, k).reshape(layer.weights.shape)
    else:
        # columns (o, di, dj) hold the weight gradient at kernel tap (k-1-di, k-1-dj)
        flipped = _dot_columns(_rows(cache.xp, p), gp, k).reshape(c, n_out, k, k)
        grad_w = np.ascontiguousarray(flipped[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    if not need_grad_in:
        return None, grad_w, grad_b
    # the adjoint of a correlation is the correlation with the flipped, transposed kernel
    w_adj = layer.weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    return _zero_border(_correlate(w_adj, gp), p), grad_w, grad_b


def relu_forward(x: np.ndarray):
    out = np.maximum(x, 0)
    return out, ReluCache(x=out)


def relu_backward(cache: ReluCache, grad_out: np.ndarray) -> np.ndarray:
    # subgradient at exactly 0 is 0
    if grad_out.shape != cache.x.shape:
        raise InvalidShapeError(f"grad_out shape {grad_out.shape} != input shape {cache.x.shape}")
    return grad_out * (cache.x > 0)


def residual_add(module_out: ComplexImage, module_in: ComplexImage) -> ComplexImage:
    """Elementwise sum of a module's output with its input.

    The backward pass needs no cache: the upstream gradient flows to both
    branches unchanged.
    """
    if module_out.channels.shape != module_in.channels.shape:
        raise InvalidShapeError(
            f"shape mismatch {module_out.channels.shape} vs {module_in.channels.shape}"
        )
    return ComplexImage(module_out.channels + module_in.channels)
