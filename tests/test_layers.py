import re
import tracemalloc

import numpy as np
import pytest

from mricascade import (
    ComplexImage,
    ConvLayer,
    InvalidParameterError,
    InvalidShapeError,
    Rng,
    conv_backward,
    conv_forward,
    he_init,
    relu_backward,
    relu_forward,
    residual_add,
)
from mricascade import layers
from mricascade.gradcheck import check_conv, check_relu, numeric_gradient, relative_error

from oracles import (
    _lhs_dot_columns,
    naive_conv2d,
    rowmajor_conv_backward,
    rowmajor_conv_forward,
    shifted_add_conv2d,
    slice_loop_column_bands,
    windowed_conv_backward,
    windowed_conv_forward,
)


def identity_layer(dtype=np.float64):
    w = np.zeros((1, 1, 3, 3), dtype=dtype)
    w[0, 0, 1, 1] = 1.0
    return ConvLayer(w, np.zeros(1, dtype=dtype))


def assert_finite_difference_agreement(n_in, n_out, k, h, w):
    rng = Rng(10 * n_in + n_out + k)
    layer = he_init(rng, n_out, n_in, k, dtype=np.float64)
    layer.bias[:] = rng.gen.standard_normal(n_out)
    x = rng.gen.standard_normal((n_in, h, w))
    out, cache = conv_forward(layer, x)
    g_up = rng.gen.standard_normal(out.shape)
    grad_in, grad_w, grad_b = conv_backward(layer, cache, g_up)

    def loss(wv, bv, xv):
        return float(np.sum(conv_forward(ConvLayer(wv, bv), xv)[0] * g_up))

    numeric = (
        numeric_gradient(lambda xv: loss(layer.weights, layer.bias, xv), x),
        numeric_gradient(lambda wv: loss(wv, layer.bias, x), layer.weights),
        numeric_gradient(lambda bv: loss(layer.weights, bv, x), layer.bias),
    )
    for name, a, n in zip(("grad_in", "grad_w", "grad_b"), (grad_in, grad_w, grad_b), numeric):
        assert a.shape == n.shape, name
        assert relative_error(a, n) < 1e-6, name


class TestHeInit:
    def test_sample_std_matches_fan_in(self):
        # sqrt(2 / (64*3*3)) ~ 0.0589; ~10^4 draws land within 5%
        layer = he_init(Rng(0), n_out=13, n_in=64, k=3, dtype=np.float64)
        expected = np.sqrt(2.0 / (64 * 9))
        assert abs(expected - 0.0589) < 1e-3
        assert abs(layer.weights.std() - expected) / expected < 0.05

    def test_biases_zero(self):
        layer = he_init(Rng(1), 8, 4, 3)
        assert np.all(layer.bias == 0.0)

    def test_determinism(self):
        a = he_init(Rng(2), 4, 2, 3, dtype=np.float64)
        b = he_init(Rng(2), 4, 2, 3, dtype=np.float64)
        assert np.array_equal(a.weights, b.weights)

    def test_even_kernel_rejected(self):
        with pytest.raises(InvalidParameterError):
            he_init(Rng(0), 4, 2, 4)


class TestConvForward:
    def test_identity_kernel(self):
        x = Rng(3).gen.standard_normal((1, 6, 6))
        out, _ = conv_forward(identity_layer(), x)
        assert np.allclose(out, x)

    def test_ones_kernel_counts_window_coverage(self):
        w = np.ones((1, 1, 3, 3))
        layer = ConvLayer(w, np.zeros(1))
        out, _ = conv_forward(layer, np.ones((1, 5, 5)))
        assert np.allclose(out[0, 1:-1, 1:-1], 9.0)  # interior sees the full window
        for i, j in [(0, 0), (0, 4), (4, 0), (4, 4)]:
            assert out[0, i, j] == 4.0  # corners see a 2x2 window

    def test_zero_weights_give_bias(self):
        layer = ConvLayer(np.zeros((2, 1, 3, 3)), np.array([1.5, -0.5]))
        out, _ = conv_forward(layer, Rng(0).gen.standard_normal((1, 4, 4)))
        assert np.allclose(out[0], 1.5)
        assert np.allclose(out[1], -0.5)

    @pytest.mark.parametrize(
        "w_shape, b_shape, error, match",
        [
            ((2, 2, 3), (2,), InvalidShapeError, "weights must be"),
            ((2, 2, 3, 5), (2,), InvalidShapeError, "weights must be"),
            ((2, 2, 2, 2), (2,), InvalidParameterError, "kernel size must be odd"),
            ((2, 2, 3, 3), (3,), InvalidShapeError, "bias must be"),
        ],
        ids=["rank-3", "non-square", "even-kernel", "bias-length"],
    )
    def test_malformed_layer_rejected(self, w_shape, b_shape, error, match):
        with pytest.raises(error, match=match):
            ConvLayer(np.zeros(w_shape), np.zeros(b_shape))

    def test_channel_mismatch_rejected(self):
        layer = he_init(Rng(0), 2, 3, 3)
        with pytest.raises(InvalidShapeError):
            conv_forward(layer, np.zeros((2, 4, 4)))

    def test_shape_preserved(self):
        layer = he_init(Rng(1), 5, 3, 3, dtype=np.float64)
        out, _ = conv_forward(layer, np.zeros((3, 6, 10)))
        assert out.shape == (5, 6, 10)

    # (3, 2) runs the scatter route (n_in > n_out), the others the gather route
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("n_in, n_out", [(2, 3), (3, 3), (3, 2)])
    def test_matches_quadruple_loop_oracle(self, n_in, n_out, k, seed):
        rng = Rng(seed)
        layer = he_init(rng, n_out=n_out, n_in=n_in, k=k, dtype=np.float64)
        layer.bias[:] = rng.gen.standard_normal(n_out)
        x = rng.gen.standard_normal((n_in, 5, 7))
        got, _ = conv_forward(layer, x)
        expect = naive_conv2d(layer.weights, layer.bias, x)
        scale = np.max(np.abs(expect))
        assert np.max(np.abs(got - expect)) < 1e-10 * scale


class TestPaddedFlatLayer:
    """The padded-flat functions return buffers that are zero outside their
    image, whose interior is the layer's result."""

    ROUNDOFF = {np.float64: 1e-12, np.float32: 1e-5}

    # (3, 2) and (2, 1) run the scatter route, the others the gather route
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("h, w", [(5, 7), (16, 20)])
    @pytest.mark.parametrize("n_in, n_out", [(2, 3), (3, 3), (3, 2), (2, 1)])
    def test_interior_is_the_correlation_and_border_is_zero(self, n_in, n_out, h, w, k, dtype):
        rng = Rng(10 * n_in + n_out + k)
        layer = he_init(rng, n_out, n_in, k, dtype=dtype)
        layer.bias[:] = rng.gen.standard_normal(n_out)
        x = rng.gen.standard_normal((n_in, h, w)).astype(dtype)
        p = (k - 1) // 2
        out = layers.conv_forward_padded(layer, layers.pad_flat(x, p))
        assert out.shape == (n_out, h + 2 * p + 1, w + 2 * p) and out.dtype == dtype
        inner = layers.interior(out, p)
        expect = shifted_add_conv2d(layer.weights, layer.bias, x)
        assert np.max(np.abs(inner - expect)) <= self.ROUNDOFF[dtype] * np.max(np.abs(expect))
        # the bias lands everywhere, so only the zeroing leaves the border zero
        assert np.count_nonzero(out) == np.count_nonzero(inner)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("n_in, n_out", [(2, 3), (3, 2)])
    def test_backward_returns_a_zero_border(self, monkeypatch, n_in, n_out, k):
        # unwritten values read as NaN, which a mask multiplying by 0 would keep
        empty = np.empty
        monkeypatch.setattr(np, "empty", lambda shape, dtype=float: np.full(shape, np.nan, dtype=dtype))
        rng = Rng(n_in + n_out + k)
        layer = he_init(rng, n_out, n_in, k, dtype=np.float64)
        x = rng.gen.standard_normal((n_in, 6, 9))
        p = (k - 1) // 2
        _, cache = conv_forward(layer, x)
        gp = layers.pad_flat(rng.gen.standard_normal((n_out, 6, 9)), p)
        grad_in, _, _ = layers.conv_backward_padded(layer, cache, gp)
        monkeypatch.setattr(np, "empty", empty)
        assert grad_in.shape == cache.xp.shape
        inner = layers.interior(grad_in, p)
        assert np.isfinite(grad_in).all() and np.count_nonzero(grad_in) == np.count_nonzero(inner) > 0


class TestConvBackward:
    def test_finite_difference_agreement(self):
        # random 1 -> 2 channel layer on a 6x6 input, all three gradients
        for result in check_conv(seed=0):
            assert result.max_error < 1e-6, result

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("n_in, n_out", [(3, 1), (2, 2)])
    def test_finite_difference_agreement_any_width(self, n_in, n_out, k):
        # 3 -> 1 narrows, so its forward pass and grad_w take the scatter side
        assert_finite_difference_agreement(n_in, n_out, k, 5, 7)

    def test_zero_grad_out(self):
        layer = he_init(Rng(0), 2, 1, 3, dtype=np.float64)
        x = Rng(1).gen.standard_normal((1, 6, 6))
        out, cache = conv_forward(layer, x)
        gi, gw, gb = conv_backward(layer, cache, np.zeros_like(out))
        assert np.all(gi == 0) and np.all(gw == 0) and np.all(gb == 0)

    def test_identity_kernel_passes_gradient_through(self):
        layer = identity_layer()
        x = Rng(2).gen.standard_normal((1, 6, 6))
        _, cache = conv_forward(layer, x)
        grad_out = Rng(3).gen.standard_normal((1, 6, 6))
        gi, _, _ = conv_backward(layer, cache, grad_out)
        assert np.array_equal(gi, grad_out)

    def test_grad_b_is_spatial_sum(self):
        layer = he_init(Rng(4), 3, 2, 3, dtype=np.float64)
        x = Rng(5).gen.standard_normal((2, 4, 4))
        out, cache = conv_forward(layer, x)
        grad_out = Rng(6).gen.standard_normal(out.shape)
        _, _, gb = conv_backward(layer, cache, grad_out)
        assert np.allclose(gb, grad_out.sum(axis=(1, 2)))

    def test_shape_mismatch_rejected(self):
        layer = he_init(Rng(0), 2, 1, 3)
        _, cache = conv_forward(layer, np.zeros((1, 4, 4), dtype=np.float32))
        with pytest.raises(InvalidShapeError):
            conv_backward(layer, cache, np.zeros((2, 5, 5), dtype=np.float32))
        # a cache from a 3 -> 2 layer handed to a 4 -> 2 layer
        _, cache3 = conv_forward(he_init(Rng(1), 2, 3, 3), np.zeros((3, 4, 4), dtype=np.float32))
        with pytest.raises(InvalidShapeError, match="3-channel.*4 channels"):
            conv_backward(he_init(Rng(2), 2, 4, 3), cache3, np.zeros((2, 4, 4), dtype=np.float32))

    def test_cache_of_another_kernel_size_rejected(self):
        # the cache is padded for its own layer's kernel
        _, cache = conv_forward(he_init(Rng(0), 2, 2, 3), np.zeros((2, 6, 6), dtype=np.float32))
        with pytest.raises(InvalidShapeError, match="padded by 1"):
            conv_backward(he_init(Rng(1), 2, 2, 5), cache, np.zeros((2, 6, 6), dtype=np.float32))

    def test_padded_gradient_of_another_shape_rejected(self):
        layer = he_init(Rng(0), 2, 3, 3)
        _, cache = conv_forward(layer, np.zeros((3, 4, 4), dtype=np.float32))
        # an unpadded gradient, and a padded one without the extra zero row
        for shape in [(2, 4, 4), (2, 6, 6)]:
            with pytest.raises(InvalidShapeError, match=re.escape(f"[2, 7, 6], got {shape}")):
                layers.conv_backward_padded(layer, cache, np.zeros(shape, dtype=np.float32))

    def test_padded_backward_rejects_a_cache_of_another_layer(self):
        gp = np.zeros((2, 9, 8), dtype=np.float32)
        _, cache3 = conv_forward(he_init(Rng(1), 2, 3, 3), np.zeros((3, 6, 6), dtype=np.float32))
        with pytest.raises(InvalidShapeError, match="3-channel.*4 channels"):
            layers.conv_backward_padded(he_init(Rng(2), 2, 4, 3), cache3, gp)
        _, cache = conv_forward(he_init(Rng(3), 2, 2, 3), np.zeros((2, 6, 6), dtype=np.float32))
        with pytest.raises(InvalidShapeError, match="padded by 1"):
            layers.conv_backward_padded(he_init(Rng(4), 2, 2, 5), cache, gp)

    @pytest.mark.parametrize("n_in, n_out", [(2, 64), (64, 2), (16, 16)])
    def test_im2col_copies_only_the_thinner_side(self, monkeypatch, n_in, n_out):
        copied = []
        column_bands = layers._column_bands

        def spy(x, k):
            copied.append(x.shape[0])
            return column_bands(x, k)

        monkeypatch.setattr(layers, "_column_bands", spy)
        layer = he_init(Rng(0), n_out, n_in, 3)
        out, cache = conv_forward(layer, np.ones((n_in, 6, 6), dtype=np.float32))
        conv_backward(layer, cache, np.ones_like(out))
        assert copied and all(c == min(n_in, n_out) for c in copied), copied


class TestRowMajorEquivalence:
    """The channel-major conv matches the row-major im2col conv it replaced."""

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("h, w", [(16, 16), (12, 20)])
    @pytest.mark.parametrize("n_in, n_out", [(2, 16), (16, 16), (16, 2), (64, 2), (64, 64)])
    def test_forward_and_gradients_match(self, n_in, n_out, h, w, k, dtype, tol):
        rng = Rng(100 * n_in + n_out + k)
        layer = he_init(rng, n_out, n_in, k, dtype=dtype)
        layer.bias[:] = rng.gen.standard_normal(n_out)
        x = rng.gen.standard_normal((n_in, h, w)).astype(dtype)
        grad_out = rng.gen.standard_normal((n_out, h, w)).astype(dtype)
        out, cache = conv_forward(layer, x)
        ref_out, ref_cache = rowmajor_conv_forward(layer, x)
        got = (out, *conv_backward(layer, cache, grad_out))
        expect = (ref_out, *rowmajor_conv_backward(layer, ref_cache, grad_out))
        for name, a, b in zip(("out", "grad_in", "grad_w", "grad_b"), got, expect):
            assert a.dtype == b.dtype == dtype and a.shape == b.shape, name
            assert np.max(np.abs(a - b)) <= tol * np.max(np.abs(b)), name


class TestPaddedFlatEquivalence:
    """The padded-flat conv matches the windowed conv it replaced.

    Both build the same columns in the same order, so each GEMM sums the same
    products in the same order, and the junk columns only add exact zeros.
    Forward output, grad_in and grad_b are therefore bit-identical at the
    workload sizes. grad_w's GEMM sums over H*(W+2p) instead of H*W, so BLAS
    blocks it differently and it agrees to roundoff. On small images BLAS picks
    its kernel by the product's size, so there every result agrees to roundoff.
    """

    ROUNDOFF = {np.float64: 1e-14, np.float32: 1e-5}

    @staticmethod
    def results(n_in, n_out, h, w, k, dtype):
        rng = Rng(100 * n_in + n_out + k)
        layer = he_init(rng, n_out, n_in, k, dtype=dtype)
        layer.bias[:] = rng.gen.standard_normal(n_out)
        x = rng.gen.standard_normal((n_in, h, w)).astype(dtype)
        grad_out = rng.gen.standard_normal((n_out, h, w)).astype(dtype)
        names = ("out", "grad_in", "grad_w", "grad_b")
        out, cache = conv_forward(layer, x)
        got = dict(zip(names, (out, *conv_backward(layer, cache, grad_out))))
        ref = (windowed_conv_forward(layer, x), *windowed_conv_backward(layer, x, grad_out))
        expect = dict(zip(names, ref))
        for name in got:
            assert got[name].dtype == expect[name].dtype == dtype, name
            assert got[name].shape == expect[name].shape, name
        return got, expect

    def assert_roundoff(self, a, b, dtype, name):
        assert np.max(np.abs(a - b)) <= self.ROUNDOFF[dtype] * np.max(np.abs(b)), name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize(
        "n_in, n_out, size", [(2, 16, 64), (16, 16, 64), (16, 2, 64), (2, 64, 80), (64, 64, 80), (64, 2, 80)]
    )
    def test_bit_identical_at_workload_sizes(self, n_in, n_out, size, k, dtype):
        got, expect = self.results(n_in, n_out, size, size, k, dtype)
        for name in ("out", "grad_in", "grad_b"):
            assert np.array_equal(got[name], expect[name]), name
        self.assert_roundoff(got["grad_w"], expect["grad_w"], dtype, "grad_w")

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "h, w, k", [(1, 1, 5), (2, 3, 5), (1, 1, 3), (5, 7, 3), (5, 7, 5), (12, 20, 1), (12, 20, 3)]
    )
    @pytest.mark.parametrize("n_in, n_out", [(2, 16), (16, 16), (16, 2), (64, 2)])
    def test_small_images_match_to_roundoff(self, n_in, n_out, h, w, k, dtype):
        # on images no larger than the kernel the last tap's slice reaches into
        # the extra padded row and the junk columns wrap into the next image row
        got, expect = self.results(n_in, n_out, h, w, k, dtype)
        for name in got:
            self.assert_roundoff(got[name], expect[name], dtype, name)


class TestColumnBands:
    """Columns built one band at a time give the results of one band holding them all.

    A budget of 1 byte makes every band the 64-column minimum, so a 16x20 image
    (352 flat columns at k=3, 384 at k=5) takes 6 bands whose edges fall inside
    image rows.
    """

    H, W = 16, 20

    @staticmethod
    def record_bands(monkeypatch):
        bands = []
        column_bands = layers._column_bands

        def spy(x, k):
            bands.append([])
            for a, b, cols in column_bands(x, k):
                bands[-1].append((a, b))
                yield a, b, cols

        monkeypatch.setattr(layers, "_column_bands", spy)
        return bands

    def run(self, n_in, n_out, k):
        rng = Rng(100 * n_in + n_out + k)
        layer = he_init(rng, n_out, n_in, k, dtype=np.float64)
        layer.bias[:] = rng.gen.standard_normal(n_out)
        x = rng.gen.standard_normal((n_in, self.H, self.W))
        grad_out = rng.gen.standard_normal((n_out, self.H, self.W))
        out, cache = conv_forward(layer, x)
        return (out, *conv_backward(layer, cache, grad_out))

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("n_in, n_out", [(2, 3), (3, 3), (3, 2)])
    def test_small_bands_match_one_band(self, monkeypatch, n_in, n_out, k):
        bands = self.record_bands(monkeypatch)
        expect = self.run(n_in, n_out, k)
        assert bands and all(len(b) == 1 for b in bands), bands
        bands.clear()
        monkeypatch.setattr(layers, "_BAND_BYTES", 1)
        got = self.run(n_in, n_out, k)
        wp = self.W + k - 1
        for calls in bands:
            assert len(calls) >= 3
            assert calls[0][0] == 0 and calls[-1][1] == self.H * wp
            assert all(b - a == 64 and b == a2 for (a, b), (a2, _) in zip(calls, calls[1:]))
            assert calls[-1][0] % wp != 0  # the last band starts inside an image row
        again = self.run(n_in, n_out, k)
        for name, a, b, c in zip(("out", "grad_in", "grad_w", "grad_b"), got, expect, again):
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b)), name
            assert np.array_equal(a, c), name

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("n_in, n_out", [(2, 3), (3, 2)])
    def test_small_bands_pass_finite_differences(self, monkeypatch, n_in, n_out, k):
        monkeypatch.setattr(layers, "_BAND_BYTES", 1)
        assert_finite_difference_agreement(n_in, n_out, k, self.H, self.W)

    def test_full_scale_layer_never_holds_all_its_columns(self):
        # the whole [64*9, 80*82] float32 column matrix alone would be 15.1 MB
        layer = he_init(Rng(0), 64, 64, 3)
        x = Rng(1).gen.standard_normal((64, 80, 80)).astype(np.float32)
        grad_out = Rng(2).gen.standard_normal((64, 80, 80)).astype(np.float32)
        _, cache = conv_forward(layer, x)

        def peak(f):
            tracemalloc.start()
            try:
                f()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: conv_forward(layer, x)) < 8e6
        assert peak(lambda: conv_backward(layer, cache, grad_out)) < 10e6


class TestStridedColumnBands:
    """Each band is one copy from a read-only strided window. It holds the
    columns the k*k slice loop it replaced built, bit for bit, in the same
    bands, and the input is left as it was.

    The input is random everywhere, its border included, so a window that
    read one value off would show. At 21x23 the default budget splits the
    16-channel 7x7 columns into several bands; a budget of 1 byte makes every
    band the 64-column minimum.
    """

    H, W = 21, 23

    @pytest.mark.parametrize("band_bytes", [layers._BAND_BYTES, 1], ids=["default", "1byte"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c", [1, 2, 16])
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_matches_the_slice_loop(self, monkeypatch, k, c, dtype, band_bytes):
        monkeypatch.setattr(layers, "_BAND_BYTES", band_bytes)
        p = (k - 1) // 2
        xp = Rng(10 * k + c).gen.standard_normal((c, self.H + 2 * p + 1, self.W + 2 * p)).astype(dtype)
        before = xp.tobytes()
        got = [(a, b, cols.copy()) for a, b, cols in layers._column_bands(xp, k)]
        expect = [(a, b, cols.copy()) for a, b, cols in slice_loop_column_bands(xp, k, band_bytes)]
        assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in expect]
        if band_bytes == 1 or (c == 16 and k == 7):
            assert len(got) > 1
        for (_, _, g), (_, _, e) in zip(got, expect):
            assert g.dtype == e.dtype and np.array_equal(g, e)
        assert xp.tobytes() == before

    @pytest.mark.parametrize("band_bytes", [layers._BAND_BYTES, 1], ids=["default", "1byte"])
    @pytest.mark.parametrize("c, r", [(2, 16), (16, 2), (16, 16)])
    def test_weight_gradient_sum_matches_a_zero_start(self, monkeypatch, c, r, band_bytes):
        # one band at the default budget: the sum is that band's product alone
        monkeypatch.setattr(layers, "_BAND_BYTES", band_bytes)
        rng = Rng(c + r)
        xp = layers.pad_flat(rng.gen.standard_normal((c, self.H, self.W)).astype(np.float32), 1)
        lhs = rng.gen.standard_normal((r, self.H * (self.W + 2))).astype(np.float32)
        assert np.array_equal(layers._dot_columns(lhs, xp, 3), _lhs_dot_columns(lhs, xp, 3))


class TestSmallGemmSlices:
    """A float32 conv product with K <= 448 and a width that is a multiple of 64
    runs in slices of a multiple of 64 columns and at most 10**6 multiply-adds,
    the products OpenBLAS runs on its small-matrix kernel, and the slices give
    the bytes of one np.matmul call. No other product is sliced.

    Every product layers._matmul_columns makes is recorded with the widths of
    the np.matmul calls it ran. The reference run lifts the multiply-add limit,
    so that each product is one call. Every flat width at 64x64 and 128x128 is a
    multiple of 64 and none at 12x20; 10->10 at k=7 and 18->18 at k=5 gather
    over K = 490 and 450, just above the bound, in products small enough to be
    sliced.
    """

    @staticmethod
    def record_products(monkeypatch):
        products = []
        matmul_columns, matmul = layers._matmul_columns, np.matmul

        def spy_columns(lhs, rhs, out):
            products.append((*lhs.shape, rhs.shape[1], []))
            return matmul_columns(lhs, rhs, out)

        def spy_matmul(a, b, *args, **kwargs):
            # every np.matmul call the conv functions make is a product's
            products[-1][-1].append(b.shape[1])
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(layers, "_matmul_columns", spy_columns)
        monkeypatch.setattr(np, "matmul", spy_matmul)
        return products

    @staticmethod
    def run(n_in, n_out, k, h, w, dtype):
        rng = Rng(1000 * k + 10 * n_in + n_out + h)
        layer = he_init(rng, n_out, n_in, k, dtype=dtype)
        layer.bias[:] = rng.gen.standard_normal(n_out)
        x = rng.gen.standard_normal((n_in, h, w)).astype(dtype)
        grad_out = rng.gen.standard_normal((n_out, h, w)).astype(dtype)
        out, cache = conv_forward(layer, x)
        return (out, *conv_backward(layer, cache, grad_out))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("h, w", [(12, 20), (64, 64), (128, 128)])
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("n_in, n_out", [(1, 8), (2, 16), (16, 16), (16, 2), (10, 10), (18, 18), (2, 64), (64, 2), (32, 32)])
    def test_slices_match_one_call(self, monkeypatch, n_in, n_out, k, h, w, dtype):
        products = self.record_products(monkeypatch)
        got = self.run(n_in, n_out, k, h, w, dtype)
        assert products
        for m, kk, n, widths in products:
            assert sum(widths) == n
            step = 10**6 // (m * kk) // 64 * 64
            if dtype == np.float64 or kk > 448 or n % 64 or not step:
                assert widths == [n], (m, kk, n)
                continue
            assert widths == [min(step, n - a) for a in range(0, n, step)]
            assert all(width % 64 == 0 and m * kk * width <= 10**6 for width in widths)
        monkeypatch.setattr(layers, "_SMALL_GEMM_MACS", 1 << 62)
        expect = self.run(n_in, n_out, k, h, w, dtype)
        for name, a, b in zip(("out", "grad_in", "grad_w", "grad_b"), got, expect):
            assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes(), name

    def test_desk_products_run_in_slices(self, monkeypatch):
        # the 3-layer 16-channel desk block at 64x64: 4224 flat columns, which
        # the 16->16 gather takes in bands of 1792
        products = self.record_products(monkeypatch)
        for n_in, n_out in [(2, 16), (16, 16), (16, 2)]:
            self.run(n_in, n_out, 3, 64, 64, np.float32)
        sliced = [product for product in products if len(product[-1]) > 1]
        assert sliced == [
            (16, 18, 4224, [3456, 768]),  # 2->16 forward, gathering
            (18, 16, 4224, [3456, 768]),  # its input gradient, scattering
            *[(16, 144, 1792, [384] * 4 + [256])] * 2, (16, 144, 640, [384, 256]),  # 16->16 forward
            *[(16, 144, 1792, [384] * 4 + [256])] * 2, (16, 144, 640, [384, 256]),  # its input gradient
            (18, 16, 4224, [3456, 768]),  # 16->2 forward, scattering
            (16, 18, 4224, [3456, 768]),  # its input gradient, gathering
        ]


class TestRelu:
    def test_forward_clamps_negatives(self):
        out, _ = relu_forward(np.array([-1.0, 0.0, 2.0]))
        assert out.tolist() == [0.0, 0.0, 2.0]

    def test_backward_zero_subgradient_at_zero(self):
        x = np.array([-1.0, 0.0, 2.0])
        _, cache = relu_forward(x)
        grad = relu_backward(cache, np.array([5.0, 5.0, 5.0]))
        assert grad.tolist() == [0.0, 0.0, 5.0]

    def test_finite_difference_away_from_kink(self):
        assert check_relu(seed=0).max_error < 1e-8

    def test_backward_rejects_a_gradient_of_another_shape(self):
        _, cache = relu_forward(np.ones((2, 3)))
        with pytest.raises(InvalidShapeError, match=r"grad_out shape \(3, 2\)"):
            relu_backward(cache, np.ones((3, 2)))


class TestResidualAdd:
    def test_zero_module_output_is_identity(self):
        x = ComplexImage(Rng(0).gen.standard_normal((2, 4, 4)))
        out = residual_add(ComplexImage.zeros(4, 4, dtype=np.float64), x)
        assert np.array_equal(out.channels, x.channels)

    def test_zero_input_passes_module_output(self):
        m = ComplexImage(Rng(1).gen.standard_normal((2, 4, 4)))
        out = residual_add(m, ComplexImage.zeros(4, 4, dtype=np.float64))
        assert np.array_equal(out.channels, m.channels)

    def test_gradient_flows_to_both_branches(self):
        # f(a, b) = sum((a + b) * G): both partials equal G
        rng = Rng(2)
        a = rng.gen.standard_normal((2, 4, 4))
        b = rng.gen.standard_normal((2, 4, 4))
        g_up = rng.gen.standard_normal((2, 4, 4))

        def f_a(av):
            return float(np.sum(residual_add(ComplexImage(av), ComplexImage(b)).channels * g_up))

        def f_b(bv):
            return float(np.sum(residual_add(ComplexImage(a), ComplexImage(bv)).channels * g_up))

        assert relative_error(g_up, numeric_gradient(f_a, a)) < 1e-9
        assert relative_error(g_up, numeric_gradient(f_b, b)) < 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidShapeError):
            residual_add(ComplexImage.zeros(4, 4), ComplexImage.zeros(4, 6))
