import hashlib
import math
import os
import struct
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mricascade import (
    CascadeModel,
    CheckpointFormatError,
    CnnModule,
    ComplexImage,
    DcConfig,
    InvalidParameterError,
    InvalidShapeError,
    InvalidStateError,
    Rng,
    SamplingMask,
    apply_encoding,
    build_model,
    cascade_backward,
    cascade_forward,
    dc_forward,
    fft2,
    generate_mask,
    he_init,
    load_checkpoint,
    mse_loss,
    reconstruct,
    residual_add,
    save_checkpoint,
    zero_filled,
    zero_model,
)
from mricascade import cascade as cascade_mod
from mricascade import cli, dclayer, layers
from mricascade.cascade import module_backward, module_forward
from mricascade.gradcheck import THRESHOLDS, check_cascade, numeric_gradient, relative_error
from mricascade.layers import ConvLayer, ReluCache
from conftest import traced_peak
from oracles import (
    interleaved_module_backward,
    interleaved_module_forward,
    line_replacement_dc_backward,
    line_replacement_dc_forward,
    name_keyed_load_checkpoint,
    shifted_add_block,
    trimmed_module_backward,
    unpadded_module_forward,
)


def problem(seed, h=16, w=16, acceleration=3.0, n_low=4, dtype=np.float64):
    truth = ComplexImage(Rng(seed).gen.standard_normal((2, h, w)).astype(dtype))
    mask = generate_mask(Rng(seed + 1000), h, w, acceleration, n_low)
    meas = apply_encoding(truth, mask)
    return truth, meas, zero_filled(meas)


class TestCascadeForward:
    def test_zeroed_network_is_identity_on_consistent_input(self):
        _, meas, x_u = problem(0)
        model = zero_model(3, 3, 8, dtype=np.float64)
        out, _ = cascade_forward(model, meas)
        assert np.max(np.abs(out.channels - x_u.channels)) < 1e-13

    def test_single_stage_equals_manual_composition(self):
        _, meas, x_u = problem(1)
        model = build_model(Rng(5), n_c=1, n_d=3, n_f=4, dtype=np.float64)
        out, _ = cascade_forward(model, meas)
        h, _ = module_forward(model.stages[0], x_u.channels)
        manual = dc_forward(
            residual_add(ComplexImage(h), x_u), DcConfig(measured=meas, lam=model.lam)
        )
        assert np.array_equal(out.channels, manual.channels)

    def test_full_mask_zero_weights_recovers_original(self):
        truth = ComplexImage(Rng(2).gen.standard_normal((2, 16, 16)))
        mask = generate_mask(Rng(3), 16, 16, 1.0, 4)
        meas = apply_encoding(truth, mask)
        model = zero_model(2, 3, 8, dtype=np.float64)
        out, _ = cascade_forward(model, meas)
        assert np.max(np.abs(out.channels - truth.channels)) < 1e-12

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 1e-4)])
    def test_final_output_hard_consistent(self, dtype, tol):
        truth, meas, x_u = problem(4, dtype=dtype)
        model = build_model(Rng(6), n_c=2, n_d=3, n_f=6, dtype=dtype)
        out, _ = cascade_forward(model, meas)
        k_out = fft2(out).to_complex()
        k_meas = meas.kspace.to_complex()
        on = meas.mask.phase_lines
        assert np.max(np.abs(k_out[on] - k_meas[on])) < tol


class TestKernelFitsImage:
    def test_taps_that_never_overlap_the_image_are_rejected(self):
        _, meas, _ = problem(0, h=8, w=12, n_low=2, dtype=np.float32)
        # p = (k-1)/2 must stay below min(H, W) = 8
        cascade_forward(zero_model(1, 2, 2, k=15), meas)
        for k in (17, 41):
            with pytest.raises(InvalidShapeError, match=f"k={k}"):
                cascade_forward(zero_model(1, 2, 2, k=k), meas)
            with pytest.raises(InvalidShapeError, match=f"k={k}"):
                reconstruct(zero_model(1, 2, 2, k=k), meas)


class TestOneZeroFill:
    def test_forward_zero_fills_once(self, zero_filled_calls):
        _, meas, _ = problem(10)
        model = build_model(Rng(0), n_c=3, n_d=2, n_f=4, dtype=np.float64)
        out, cache = cascade_forward(model, meas)
        assert zero_filled_calls == [meas]
        cascade_backward(model, cache, out)
        reconstruct(model, meas)
        assert len(zero_filled_calls) == 2

    @pytest.mark.parametrize("lam", [math.inf, 2.0])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-13), (np.float32, 1e-5)])
    def test_matches_line_replacement_dc(self, monkeypatch, lam, dtype, tol):
        truth, meas, _ = problem(11, dtype=dtype)
        model = build_model(Rng(12), n_c=3, n_d=3, n_f=6, lam=lam, dtype=dtype)

        def run():
            out, cache = cascade_forward(model, meas)
            _, grad = mse_loss(out, truth)
            return out.channels, cascade_backward(model, cache, grad)

        got_out, got_grads = run()
        monkeypatch.setattr(cascade_mod, "dc_forward", line_replacement_dc_forward)
        monkeypatch.setattr(cascade_mod, "dc_backward", line_replacement_dc_backward)
        expect_out, expect_grads = run()
        assert got_out.dtype == dtype
        assert np.max(np.abs(got_out - expect_out)) <= tol * np.max(np.abs(expect_out))
        # relative to the largest gradient entry: with lam = inf the last bias
        # gradient is roundoff, since a constant image lives on the sampled DC line
        scale = max(np.max(np.abs(g)) for g in expect_grads)
        assert len(got_grads) == len(expect_grads) == 2 * 3 * 3
        for a, b in zip(got_grads, expect_grads):
            assert a.dtype == b.dtype == dtype
            assert np.max(np.abs(a - b)) <= tol * scale


@pytest.fixture
def operator_builds(monkeypatch):
    """Mask heights of the row-operator builds: ``SamplingMask.operator``
    calls that find no operator of their dtype kept on the mask."""
    heights = []
    operator = SamplingMask.operator

    def counted(mask, dtype):
        if np.dtype(dtype) not in mask._operators:
            heights.append(mask.height)
        return operator(mask, dtype)

    monkeypatch.setattr(SamplingMask, "operator", counted)
    return heights


class TestNoComplexRoundTripPerStage:
    def test_one_operator_build_and_one_zero_fill(self, monkeypatch, operator_builds, full_dft_calls):
        truth, _, _ = problem(13, dtype=np.float32)
        mask = generate_mask(Rng(1013), 16, 16, 3.0, 4)
        model = build_model(Rng(14), n_c=3, n_d=3, n_f=16)
        to_complex_calls = []
        to_complex = ComplexImage.to_complex

        def counted_to_complex(img):
            to_complex_calls.append(img.channels.shape)
            return to_complex(img)

        monkeypatch.setattr(ComplexImage, "to_complex", counted_to_complex)
        meas = apply_encoding(truth, mask)
        out, cache = cascade_forward(model, meas)
        cascade_backward(model, cache, out)
        assert operator_builds == [16]
        # the encoding's and the zero-fill's, none per stage
        assert to_complex_calls == [(2, 16, 16)] * 2
        assert out.dtype == np.float32
        reconstruct(model, meas)
        assert operator_builds == [16]
        # encoding, zero-fill and data consistency use the mask's sampled rows
        assert full_dft_calls == []

    def test_measurements_sharing_a_mask_share_one_build(self, operator_builds):
        # two slices of a volume: one mask, two measurements
        truth, meas, _ = problem(15, dtype=np.float32)
        other = apply_encoding(ComplexImage(truth.channels[:, ::-1].copy()), meas.mask)
        model = build_model(Rng(16), n_c=3, n_d=3, n_f=4)
        out, cache = cascade_forward(model, meas)
        cascade_backward(model, cache, out)
        reconstruct(model, other)
        assert operator_builds == [16]
        # a model of another precision casts a build of its own
        reconstruct(build_model(Rng(16), n_c=1, n_d=2, n_f=4, dtype=np.float64), other)
        assert operator_builds == [16, 16]

    def test_fresh_masks_make_one_build_each(self, operator_builds, tmp_path, capsys):
        from mricascade import TrainConfig, init_adam_state, train_epoch
        from mricascade.phantom import make_dataset

        model = build_model(Rng(17), n_c=2, n_d=2, n_f=4)
        images = make_dataset(5, 16, 16, seed=18)
        cfg = TrainConfig(batch_size=2, acceleration=3.0, n_low=4, augment=False, seed=0)
        train_epoch(model, images, cfg, Rng(19), init_adam_state(model.parameters()))
        assert operator_builds == [16] * 5

        operator_builds.clear()
        data, ckpt = tmp_path / "data", tmp_path / "m.csc1"
        assert cli.main(["generate", "--n", "4", "--size", "16", "--seed", "20", "--out", str(data)]) == 0
        save_checkpoint(model, ckpt)
        assert cli.main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data), "--split", "train",
                         "--acceleration", "3", "--n-low", "4"]) == 0
        capsys.readouterr()
        n_train = sum(s == "train" for _, s in cli.read_manifest(data))
        assert n_train >= 2 and operator_builds == [16] * n_train


class TestInferenceMemory:
    def test_conv_caches_hold_only_the_layer_input(self):
        # full-scale layer widths; the 16x16 size keeps the test fast
        model = build_model(Rng(0), n_c=2, n_d=5, n_f=64)
        _, meas, x_u = problem(3)
        _, cache = cascade_forward(model, meas)
        p = 1
        for stage, caches in zip(model.stages, cache.stage_caches):
            assert len(caches) == len(stage.layers) == model.n_d
            for i, (layer, c) in enumerate(zip(stage.layers, caches)):
                assert [f.name for f in fields(c)] == ["xp", "p"]
                assert c.p == p and c.x.shape == (layer.n_in, 16, 16)
                if i:
                    # a ReLU output, not a pre-activation kept beside it
                    assert c.x.min() >= 0
                # the border is zero: it is the layer's padding
                assert np.count_nonzero(c.xp) == np.count_nonzero(c.x)
                # the padded-flat input and no larger buffer (such as the
                # [n_in*k*k, H*W] columns) is kept alive behind it
                root = c.x
                while root.base is not None:
                    root = root.base
                assert root.nbytes == layer.n_in * (16 + 2 * p + 1) * (16 + 2 * p) * c.x.itemsize

    def test_reconstruct_keeps_no_caches(self):
        model = build_model(Rng(0), n_c=2, n_d=5, n_f=64)
        _, meas, _ = problem(3, h=32, w=32, dtype=np.float32)
        _, cache = cascade_forward(model, meas)
        held = [c.xp.nbytes for caches in cache.stage_caches for c in caches]
        del cache

        with_caches = traced_peak(lambda: cascade_forward(model, meas))
        without = traced_peak(lambda: reconstruct(model, meas))
        # at its peak reconstruct holds one layer's input and output, as
        # cascade_forward does; every other cached byte must be gone
        assert with_caches - without >= sum(held) - 2 * max(held)
        assert cascade_forward(model, meas, _keep_caches=False)[1].stage_caches == []


class TestPaddedFlatBlock:
    """A block whose activations stay padded-flat gives the bits of the chain
    it replaced: per layer pad, conv, trim plus bias, np.maximum."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "n_c, n_d, n_f, k, size",
        [(3, 3, 16, 3, 64), (2, 5, 64, 3, 80), (2, 3, 1, 3, 64), (2, 3, 2, 3, 64), (2, 3, 16, 1, 64), (2, 3, 16, 5, 64)],
        ids=["desk64", "full80", "n_f1", "n_f2", "k1", "k5"],
    )
    def test_matches_the_unpadded_chain_bit_for_bit(self, monkeypatch, n_c, n_d, n_f, k, size, dtype):
        truth, meas, _ = problem(20 + k, h=size, w=size, dtype=dtype)
        model = build_model(Rng(n_f), n_c=n_c, n_d=n_d, n_f=n_f, k=k, dtype=dtype)
        # nonzero biases: the bias lands in the junk columns before they are re-zeroed
        for stage in model.stages:
            for layer in stage.layers:
                layer.bias[:] = Rng(layer.n_out).gen.standard_normal(layer.n_out) * 0.1

        def run():
            out, cache = cascade_forward(model, meas)
            _, grad = mse_loss(out, truth)
            return [out.channels, reconstruct(model, meas).channels, *cascade_backward(model, cache, grad)]

        got = run()
        monkeypatch.setattr(cascade_mod, "module_forward", unpadded_module_forward)
        expect = run()
        assert len(got) == len(expect) == 2 + 2 * n_c * n_d
        for a, b in zip(got, expect):
            assert a.dtype == b.dtype == dtype and np.array_equal(a, b)


class TestPaddedFlatBackward:
    """A block whose gradients stay padded-flat, with each weight gradient's
    GEMM in BLAS's faster orientation, gives the bits of the chain it replaced:
    per layer pad, banded lhs @ cols.T, trim, and relu_backward on a view."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "n_c, n_d, n_f, k, size",
        [(3, 3, 16, 3, 64), (2, 5, 64, 3, 80), (2, 3, 1, 3, 64), (2, 3, 2, 3, 64), (2, 3, 16, 1, 64), (2, 3, 16, 5, 64)],
        ids=["desk64", "full80", "n_f1", "n_f2", "k1", "k5"],
    )
    def test_matches_the_trimmed_chain_bit_for_bit(self, monkeypatch, n_c, n_d, n_f, k, size, dtype):
        truth, meas, _ = problem(40 + k, h=size, w=size, dtype=dtype)
        model = build_model(Rng(n_f + 1), n_c=n_c, n_d=n_d, n_f=n_f, k=k, dtype=dtype)
        for stage in model.stages:
            for layer in stage.layers:
                layer.bias[:] = Rng(layer.n_out + 1).gen.standard_normal(layer.n_out) * 0.1
        out, cache = cascade_forward(model, meas)
        _, grad = mse_loss(out, truth)
        g_block = Rng(size).gen.standard_normal((2, size, size)).astype(dtype)

        def run():
            block_grad_in, _ = cascade_mod.module_backward(model.stages[0], cache.stage_caches[0], g_block)
            return [block_grad_in, *cascade_backward(model, cache, grad)]

        got = run()
        monkeypatch.setattr(cascade_mod, "module_backward", trimmed_module_backward)
        expect = run()
        assert len(got) == len(expect) == 1 + 2 * n_c * n_d
        for a, b in zip(got, expect):
            assert a.dtype == b.dtype == dtype and a.shape == b.shape and np.array_equal(a, b)

    def test_unwritten_buffer_values_never_reach_a_gradient(self, monkeypatch):
        # the gathering correlation allocates grad_in with np.empty and leaves
        # the values before and after its rows unwritten; the ReLU mask
        # multiplies them by 0, which would keep a NaN
        truth, meas, _ = problem(52, h=32, w=32)
        model = build_model(Rng(53), n_c=2, n_d=4, n_f=8, dtype=np.float64)
        out, cache = cascade_forward(model, meas)
        _, grad = mse_loss(out, truth)
        expect = cascade_backward(model, cache, grad)
        empty = np.empty
        monkeypatch.setattr(np, "empty", lambda shape, dtype=float: np.full(shape, np.nan, dtype=dtype))
        got = cascade_backward(model, cache, grad)
        monkeypatch.setattr(np, "empty", empty)
        assert all(np.array_equal(a, b) for a, b in zip(got, expect, strict=True))

    def test_backward_leaves_the_caches_as_they_were(self):
        # the ReLU's backward masks the gradient in place; it must never write
        # into the ReLU output it reads the mask from
        truth, meas, _ = problem(50, h=32, w=32)
        model = build_model(Rng(51), n_c=2, n_d=4, n_f=8, dtype=np.float64)
        out, cache = cascade_forward(model, meas)
        _, grad = mse_loss(out, truth)
        before = [c.xp.tobytes() for caches in cache.stage_caches for c in caches]
        first = cascade_backward(model, cache, grad)
        second = cascade_backward(model, cache, grad)
        after = [c.xp.tobytes() for caches in cache.stage_caches for c in caches]
        assert len(before) == model.n_c * model.n_d and after == before
        assert all(np.array_equal(a, b) for a, b in zip(first, second, strict=True))


class TestBlockGradients:
    """module_forward and module_backward, the code the cascade runs, against
    finite differences and an independent float64 reference."""

    @pytest.mark.parametrize("k", [3, 5])
    def test_small_bands_pass_finite_differences(self, monkeypatch, k):
        # 2 -> 4 widens and 4 -> 2 narrows; 64-column bands split the 12x14
        # image's 192 (k=3) or 216 (k=5) flat columns into at least 3
        monkeypatch.setattr(layers, "_BAND_BYTES", 1)
        band_counts = []
        column_bands = layers._column_bands

        def spy(x, k):
            band_counts.append(0)
            for band in column_bands(x, k):
                band_counts[-1] += 1
                yield band

        rng = Rng(60 + k)
        module = CnnModule([he_init(rng, n_out, n_in, k, dtype=np.float64) for n_in, n_out in [(2, 4), (4, 4), (4, 2)]])
        for layer in module.layers:
            layer.bias[:] = rng.gen.standard_normal(layer.n_out) * 0.1
        x = rng.gen.standard_normal((2, 12, 14))
        g_up = rng.gen.standard_normal((2, 12, 14))
        monkeypatch.setattr(layers, "_column_bands", spy)
        out, caches = module_forward(module, x)
        grad_in, param_grads = module_backward(module, caches, g_up)
        monkeypatch.setattr(layers, "_column_bands", column_bands)
        # columns for every weight gradient, for the forward of each layer
        # that does not narrow, and for the input gradient of each that does
        # not widen
        assert len(band_counts) == 7 and min(band_counts) >= 3, band_counts

        def loss(mod, xv):
            return float(np.sum(module_forward(mod, xv, _keep_caches=False)[0] * g_up))

        def replaced(i, weights=None, bias=None):
            mod_layers = list(module.layers)
            layer = mod_layers[i]
            mod_layers[i] = ConvLayer(layer.weights if weights is None else weights, layer.bias if bias is None else bias)
            return CnnModule(mod_layers)

        checks = [("conv_input", grad_in, numeric_gradient(lambda xv: loss(module, xv), x))]
        for i, (layer, (gw, gb)) in enumerate(zip(module.layers, param_grads, strict=True)):
            checks.append(("conv_weight", gw, numeric_gradient(lambda wv: loss(replaced(i, weights=wv), x), layer.weights)))
            checks.append(("conv_bias", gb, numeric_gradient(lambda bv: loss(replaced(i, bias=bv), x), layer.bias)))
        for component, analytic, numeric in checks:
            assert analytic.shape == numeric.shape, component
            assert relative_error(analytic, numeric) < THRESHOLDS[component], component

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        channels=st.integers(2, 4).flatmap(lambda n_d: st.lists(st.integers(1, 6), min_size=n_d + 1, max_size=n_d + 1)),
        k=st.sampled_from([1, 3, 5, 7]),
        hw=st.tuples(st.integers(1, 9), st.integers(1, 9)).filter(lambda t: t[0] != t[1]),
        band_bytes=st.sampled_from([1, 1000, 5000, 1 << 20]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_the_shifted_add_reference(self, channels, k, hw, band_bytes, seed):
        rng = Rng(seed)
        module = CnnModule([he_init(rng, n_out, n_in, k, dtype=np.float64) for n_in, n_out in zip(channels, channels[1:])])
        for layer in module.layers:
            layer.bias[:] = rng.gen.standard_normal(layer.n_out) * 0.1
        h, w = 2 * hw[0], 2 * hw[1]
        x = rng.gen.standard_normal((channels[0], h, w))
        g_up = rng.gen.standard_normal((channels[-1], h, w))
        with mock.patch.object(layers, "_BAND_BYTES", band_bytes):
            out, caches = module_forward(module, x)
            grad_in, param_grads = module_backward(module, caches, g_up)
        expect_out, expect_grad_in, expect_param_grads = shifted_add_block(module.layers, x, g_up)
        got = [out, grad_in, *(g for pair in param_grads for g in pair)]
        expect = [expect_out, expect_grad_in, *(g for pair in expect_param_grads for g in pair)]
        for a, b in zip(got, expect, strict=True):
            assert a.shape == b.shape and a.dtype == np.float64
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b), initial=1.0)


class TestReluStaysReachable:
    """The block calls the ReLU through the cascade module's name, so a
    network with the ReLU swapped out is a different network."""

    def test_block_calls_relu_on_each_hidden_layer(self, monkeypatch):
        _, meas, x_u = problem(30)
        model = build_model(Rng(31), n_c=2, n_d=4, n_f=6, dtype=np.float64)
        calls = []
        relu = cascade_mod.relu_forward

        def spy(x):
            calls.append(x.shape)
            return relu(x)

        monkeypatch.setattr(cascade_mod, "relu_forward", spy)
        module_forward(model.stages[0], x_u.channels)
        assert len(calls) == model.n_d - 1
        reconstruct(model, meas)
        assert len(calls) == (1 + model.n_c) * (model.n_d - 1)

    def test_identity_relu_changes_the_output(self, monkeypatch):
        _, meas, _ = problem(32)
        model = build_model(Rng(33), n_c=2, n_d=3, n_f=6, dtype=np.float64)
        expect = reconstruct(model, meas).channels
        monkeypatch.setattr(cascade_mod, "relu_forward", lambda x: (x.copy(), ReluCache(x=np.ones_like(x))))
        assert not np.array_equal(reconstruct(model, meas).channels, expect)


class TestOneCachePerLayer:
    @pytest.mark.parametrize("n_d", [2, 3, 5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_interleaved_block_bit_for_bit(self, monkeypatch, dtype, n_d):
        truth, meas, x_u = problem(9, dtype=dtype)
        model = build_model(Rng(n_d), n_c=2, n_d=n_d, n_f=6, dtype=dtype)
        g_block = Rng(10).gen.standard_normal((2, 16, 16)).astype(dtype)

        def run():
            out, cache = cascade_forward(model, meas)
            _, grad = mse_loss(out, truth)
            block_grad_in, _ = cascade_mod.module_backward(
                model.stages[0], cache.stage_caches[0], g_block
            )
            return [out.channels, block_grad_in, *cascade_backward(model, cache, grad)]

        got = run()
        monkeypatch.setattr(cascade_mod, "module_forward", interleaved_module_forward)
        monkeypatch.setattr(cascade_mod, "module_backward", interleaved_module_backward)
        expect = run()
        assert len(got) == len(expect) == 2 + 2 * 2 * n_d
        for a, b in zip(got, expect):
            assert a.dtype == b.dtype == dtype and np.array_equal(a, b)


class TestCascadeBackward:
    def test_full_model_finite_differences(self):
        result = check_cascade(seed=0, size=16, n_c=2, n_d=3, n_f=4)
        assert result.max_error < 1e-4

    def test_zero_upstream_gradient(self):
        _, meas, x_u = problem(5)
        model = build_model(Rng(7), n_c=2, n_d=3, n_f=4, dtype=np.float64)
        out, cache = cascade_forward(model, meas)
        grads = cascade_backward(model, cache, ComplexImage.zeros(16, 16, dtype=np.float64))
        assert all(np.all(g == 0) for g in grads)

    def test_gradients_reach_every_stage(self):
        truth, meas, x_u = problem(6)
        model = build_model(Rng(8), n_c=2, n_d=3, n_f=4, dtype=np.float64)
        out, cache = cascade_forward(model, meas)
        _, grad = mse_loss(out, truth)
        grads = cascade_backward(model, cache, grad)
        per_stage = len(grads) // 2
        # stage 2 parameters receive gradient through the stage-1 DC layer
        assert any(np.max(np.abs(g)) > 0 for g in grads[per_stage:])
        assert any(np.max(np.abs(g)) > 0 for g in grads[:per_stage])

    def test_stale_cache_rejected(self):
        _, meas, x_u = problem(7)
        model_a = build_model(Rng(9), n_c=2, n_d=3, n_f=4, dtype=np.float64)
        model_b = build_model(Rng(10), n_c=2, n_d=3, n_f=8, dtype=np.float64)
        out, cache = cascade_forward(model_a, meas)
        _, grad = mse_loss(out, out)
        with pytest.raises(InvalidStateError):
            cascade_backward(model_b, cache, grad)

    def test_mismatched_grad_shape_rejected(self):
        _, meas, x_u = problem(8)
        model = build_model(Rng(11), n_c=1, n_d=2, n_f=4, dtype=np.float64)
        _, cache = cascade_forward(model, meas)
        with pytest.raises(InvalidStateError):
            cascade_backward(model, cache, ComplexImage.zeros(8, 8, dtype=np.float64))

    def test_cache_of_a_same_shaped_model_rejected(self):
        # the cache holds model_a's layer inputs: model_b would take them for
        # its own and return gradients of the wrong weights
        truth, meas, _ = problem(9)
        model_a, model_b = (build_model(Rng(s), n_c=2, n_d=3, n_f=4, dtype=np.float64) for s in (12, 13))
        out, cache = cascade_forward(model_a, meas)
        _, grad = mse_loss(out, truth)
        with pytest.raises(InvalidStateError, match="another model"):
            cascade_backward(model_b, cache, grad)
        assert len(cascade_backward(model_a, cache, grad)) == len(model_a.parameters())

    def test_inference_cache_rejected(self):
        _, meas, _ = problem(10)
        model = build_model(Rng(14), n_c=1, n_d=2, n_f=4, dtype=np.float64)
        _, cache = cascade_forward(model, meas, _keep_caches=False)
        with pytest.raises(InvalidStateError, match="0 stage caches for 1 stages"):
            cascade_backward(model, cache, ComplexImage.zeros(16, 16, dtype=np.float64))

    @pytest.mark.parametrize("change", ["stage appended", "stage removed", "layer appended", "layer removed"])
    def test_stage_or_layer_count_changed_rejected(self, change):
        truth, meas, _ = problem(12)
        model = build_model(Rng(16), n_c=2, n_d=3, n_f=4, dtype=np.float64)
        out, cache = cascade_forward(model, meas)
        _, grad = mse_loss(out, truth)
        if change == "stage appended":
            model.stages.append(model.stages[0])
        elif change == "stage removed":
            del model.stages[0]
        elif change == "layer appended":
            model.stages[1].layers.append(ConvLayer(np.zeros((2, 2, 3, 3)), np.zeros(2)))
        else:
            # the middle layer maps 4 channels to 4, so the shapes still chain
            del model.stages[1].layers[1]
        with pytest.raises(InvalidStateError, match=r"caches for [1-4] (stages|layers)"):
            cascade_backward(model, cache, grad)

    @pytest.mark.parametrize("layer, shape", [(0, (4, 2, 5, 5)), (1, (8, 4, 3, 3)), (2, (2, 8, 3, 3))],
                             ids=["kernel", "n_out", "n_in"])
    def test_layer_swapped_for_another_shape_raises(self, layer, shape):
        truth, meas, _ = problem(11)
        model = build_model(Rng(15), n_c=2, n_d=3, n_f=4, dtype=np.float64)
        out, cache = cascade_forward(model, meas)
        _, grad = mse_loss(out, truth)
        model.stages[1].layers[layer] = ConvLayer(np.zeros(shape), np.zeros(shape[0]))
        with pytest.raises(InvalidShapeError):
            cascade_backward(model, cache, grad)


class TestModelBuilders:
    @pytest.mark.parametrize(
        "bad",
        [dict(n_c=0), dict(n_d=1), dict(n_f=0), dict(k=4), dict(k=-1),
         dict(lam=0.0), dict(lam=-1.0), dict(lam=math.nan)],
        ids=["n_c", "n_d", "n_f", "k4", "k-1", "lam0", "lam-1", "lam-nan"],
    )
    @pytest.mark.parametrize("builder", ["build_model", "zero_model"])
    def test_rejects_bad_hyperparameters(self, builder, bad):
        make = {"build_model": lambda **kw: build_model(Rng(0), **kw), "zero_model": zero_model}[builder]
        with pytest.raises(InvalidParameterError):
            make(**{"n_c": 1, "n_d": 3, "n_f": 4, **bad})

    @pytest.mark.parametrize(
        "second, match",
        [((2, 4, 5), "one kernel size"), ((2, 3, 3), "layer 0 gives 4 channels, layer 1 takes 3")],
        ids=["kernel_size", "channels"],
    )
    def test_block_of_mixed_kernel_sizes_rejected(self, second, match):
        # one padding serves every layer of a block, and each layer takes the
        # channels the one before it gives
        with pytest.raises(InvalidShapeError, match=match):
            CnnModule([he_init(Rng(0), 4, 2, 3), he_init(Rng(1), *second)])

    def test_zero_model_has_build_model_layout(self):
        zero, built = zero_model(2, 3, 5), build_model(Rng(0), 2, 3, 5)
        assert [p.shape for p in zero.parameters()] == [p.shape for p in built.parameters()]
        assert not any(np.any(p) for p in zero.parameters())


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        model = build_model(Rng(12), n_c=2, n_d=3, n_f=5, dtype=np.float32, lam=math.inf)
        path = tmp_path / "m.csc1"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert (back.n_c, back.n_d, back.n_f, back.k) == (2, 3, 5, 3)
        assert back.lam == math.inf
        for a, b in zip(model.parameters(), back.parameters()):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "model, digest",
        [
            (lambda: build_model(Rng(21), 3, 3, 16),
             "83e3f98bd00618ed94f6ab59c26b17847fda94b2393b08adb79c6eece531f002"),
            (lambda: build_model(Rng(22), 2, 3, 5, k=5, lam=7.5, dtype=np.float64),
             "33b57dcd39a02dfa582c4b15c6939649d852e6728579816a0f3a6b8fadcdf673"),
        ],
        ids=["float32-3-3-16", "float64-2-3-5-k5-lam7.5"],
    )
    def test_output_bytes_pinned(self, tmp_path, model, digest):
        # the CSC1 layout is a file format: a rewrite of the writer must
        # reproduce these files byte for byte
        path = tmp_path / "m.csc1"
        save_checkpoint(model(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_finite_lambda_preserved(self, tmp_path):
        model = build_model(Rng(13), n_c=1, n_d=2, n_f=3, dtype=np.float64, lam=7.5)
        path = tmp_path / "m.csc1"
        save_checkpoint(model, path)
        assert load_checkpoint(path).lam == 7.5

    def test_header_payload_mismatch_rejected(self, tmp_path):
        model = build_model(Rng(14), n_c=1, n_d=2, n_f=4, dtype=np.float32)
        path = tmp_path / "m.csc1"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        # n_f lives in the third u32 of the hyperparameter block (offset 14+8)
        raw[22:26] = (8).to_bytes(4, "little")
        bad = tmp_path / "bad.csc1"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(bad)

    def test_failed_save_keeps_existing_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "m.csc1"
        save_checkpoint(build_model(Rng(0), 1, 2, 2), path)
        before = path.read_bytes()
        real_write = cascade_mod.write_tensor
        written = []

        def write_one_then_fail(f, arr):
            if written:
                raise OSError("disk full")
            written.append(arr)
            real_write(f, arr)

        monkeypatch.setattr(cascade_mod, "write_tensor", write_one_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(build_model(Rng(1), 1, 2, 2), path)
        assert len(written) == 1
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.csc1"]

    def test_hyperparameters_are_read_off_the_layers(self):
        model = build_model(Rng(1), n_c=2, n_d=3, n_f=5, k=5, lam=2.0)
        assert [f.name for f in fields(model)] == ["stages", "lam"]
        assert (model.n_c, model.n_d, model.n_f, model.k) == (2, 3, 5, 5)
        with pytest.raises(AttributeError):
            model.n_d = 3

    @pytest.mark.parametrize(
        "second, match",
        [
            (dict(n_d=3), "n_d=2, n_f=2, k=3"),
            (dict(n_f=4), "n_d=2, n_f=2, k=3"),
            (dict(k=5), "n_d=2, n_f=2, k=3"),
            (dict(dtype=np.float64), "mixed tensor precisions"),
        ],
        ids=["deeper", "wider", "other_k", "float64"],
    )
    def test_unequal_stages_keep_existing_checkpoint(self, tmp_path, second, match):
        # a hand-built model whose second stage the header's one (n_d, n_f, k)
        # and the file's one precision cannot describe
        path = tmp_path / "m.csc1"
        save_checkpoint(build_model(Rng(0), 1, 2, 2), path)
        before = path.read_bytes()
        first, other = build_model(Rng(1), 1, 2, 2), build_model(Rng(2), **{"n_c": 1, "n_d": 2, "n_f": 2, **second})
        model = CascadeModel([first.stages[0], other.stages[0]])
        with pytest.raises(ValueError, match=match):
            save_checkpoint(model, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.csc1"]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_tensor_keeps_existing_checkpoint(self, tmp_path, monkeypatch, value):
        # load_checkpoint refuses such a file, so save_checkpoint writes none
        path = tmp_path / "m.csc1"
        save_checkpoint(build_model(Rng(0), 2, 2, 2), path)
        before = path.read_bytes()
        model = build_model(Rng(1), 2, 2, 2)
        model.stages[1].layers[0].bias[1] = value
        opened = []
        monkeypatch.setattr(cascade_mod, "open", lambda *a, **kw: opened.append(a), raising=False)
        with pytest.raises(InvalidParameterError, match="^tensor stage1.conv0.bias has non-finite values$"):
            save_checkpoint(model, path)
        assert opened == []
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.csc1"]

    @pytest.mark.parametrize("lam", [math.inf, 7.5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_c,n_d,n_f,k", [(1, 2, 1, 1), (2, 3, 5, 3), (3, 4, 2, 5), (2, 5, 8, 3)])
    def test_loads_as_the_name_keyed_loader(self, tmp_path, lam, dtype, n_c, n_d, n_f, k):
        path = tmp_path / "m.csc1"
        save_checkpoint(build_model(Rng(n_d), n_c, n_d, n_f, k=k, lam=lam, dtype=dtype), path)
        got, expect = load_checkpoint(path), name_keyed_load_checkpoint(path)
        assert got.lam == expect.lam == lam
        assert (got.n_c, got.n_d, got.n_f, got.k) == (expect.n_c, expect.n_d, expect.n_f, expect.k)
        assert (expect.n_c, expect.n_d, expect.n_f, expect.k) == (n_c, n_d, n_f, k)
        assert len(got.parameters()) == len(expect.parameters()) == 2 * n_c * n_d
        for a, b in zip(got.parameters(), expect.parameters()):
            assert a.dtype == b.dtype == dtype and a.shape == b.shape and np.array_equal(a, b)

    def test_tensors_out_of_order_rejected(self, tmp_path):
        path = tmp_path / "m.csc1"
        model = build_model(Rng(3), 1, 2, 2)
        save_checkpoint(model, path)
        raw = path.read_bytes()
        # the same header, then the tensor records in reverse order
        records, pos = [], 34
        for arr in model.parameters():
            size = 2 + int.from_bytes(raw[pos:pos + 2], "little") + 6 + 4 * arr.ndim + arr.nbytes
            records.append(raw[pos:pos + size])
            pos += size
        assert pos == len(raw)
        path.write_bytes(raw[:34] + b"".join(reversed(records)))
        assert name_keyed_load_checkpoint(path).n_d == 2
        with pytest.raises(CheckpointFormatError, match="m.csc1: expected tensor stage0.conv0.weight next"):
            load_checkpoint(path)

    def test_huge_tensor_count_rejected_before_planning_layers(self, tmp_path):
        # 40 bytes: a header for n_c=1, n_d=2^31-1 whose tensor count 2^32-2
        # agrees with it, then 6 bytes where those tensors should be
        path = tmp_path / "huge.csc1"
        header = b"CSC1" + struct.pack("<BBd", 1, 1, 0.0) + struct.pack("<5I", 1, 2**31 - 1, 2, 3, 2**32 - 2)
        path.write_bytes(header + b"\x00" * 6)
        assert path.stat().st_size == 40

        def load():
            with pytest.raises(CheckpointFormatError, match="huge.csc1"):
                load_checkpoint(path)

        assert traced_peak(load) < 1e6

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.csc1"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)


class TestCapacity:
    def test_deeper_cascade_fits_no_worse(self):
        # statistical sanity check with frozen seeds, not an analytic property:
        # on a task hard enough to saturate one stage (6x undersampling), the
        # two-stage model's late training loss should not exceed the one-stage
        # model's after equal epochs. Both runs consume identical rng streams,
        # so they see the same mask sequence; the trailing mean damps the
        # per-epoch mask noise.
        from mricascade import TrainConfig, init_adam_state, train_epoch
        from mricascade.phantom import make_dataset

        trailing = {}
        for n_c in (1, 2):
            images = make_dataset(4, 32, 32, seed=21)
            model = build_model(Rng(1).child(0), n_c=n_c, n_d=3, n_f=8)
            cfg = TrainConfig(batch_size=1, acceleration=6.0, n_low=4, augment=False, seed=0)
            state = init_adam_state(model.parameters())
            rng = Rng(1).child(1)
            hist = []
            for epoch in range(200):
                model, loss = train_epoch(model, images, cfg, rng, state, epoch=epoch)
                hist.append(loss)
            trailing[n_c] = float(np.mean(hist[-20:]))
        assert trailing[2] <= trailing[1]
