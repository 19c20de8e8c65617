import math

import numpy as np
import pytest

from mricascade import (
    ComplexImage,
    DcConfig,
    InvalidParameterError,
    InvalidShapeError,
    Measurements,
    Rng,
    SamplingMask,
    apply_encoding,
    dc_backward,
    dc_forward,
    fft2,
    generate_mask,
    zero_filled,
)
from mricascade.gradcheck import check_dclayer
from oracles import (
    complex_dc_backward,
    complex_dc_forward,
    line_replacement_dc_backward,
    line_replacement_dc_forward,
)


def random_image(seed, h=8, w=8):
    return ComplexImage(Rng(seed).gen.standard_normal((2, h, w)))


def make_cfg(seed=0, lam=math.inf, h=8, w=8, acceleration=2.0, n_low=2):
    truth = random_image(seed, h, w)
    mask = generate_mask(Rng(seed + 100), h, w, acceleration, n_low)
    return DcConfig(measured=apply_encoding(truth, mask), lam=lam)


def empty_cfg(lam=math.inf, h=8, w=8):
    mask = SamplingMask(h, w, np.zeros(h, dtype=bool))
    meas = Measurements(kspace=ComplexImage.zeros(h, w, dtype=np.float64), mask=mask)
    return DcConfig(measured=meas, lam=lam)


class TestDcForward:
    def test_unit_lambda_blends_to_midpoint(self):
        cfg = make_cfg(seed=1, lam=1.0)
        x = random_image(2)
        out_k = fft2(dc_forward(x, cfg)).to_complex()
        x_k = fft2(x).to_complex()
        y_k = cfg.measured.kspace.to_complex()
        on = cfg.mask.phase_lines
        assert np.max(np.abs(out_k[on] - (x_k[on] + y_k[on]) / 2.0)) < 1e-12
        assert np.max(np.abs(out_k[~on] - x_k[~on])) < 1e-12

    def test_consistent_input_is_fixed_point_infinite_lambda(self):
        cfg = make_cfg(seed=3)
        x = zero_filled(cfg.measured)  # consistent by construction
        out = dc_forward(x, cfg)
        assert np.max(np.abs(out.channels - x.channels)) < 1e-13

    @pytest.mark.parametrize("lam", [1.0, 5.0, math.inf])
    def test_empty_mask_is_identity(self, lam):
        x = random_image(4)
        out = dc_forward(x, empty_cfg(lam=lam))
        assert np.max(np.abs(out.channels - x.channels)) < 1e-14

    def test_hard_consistency_on_sampled_set(self):
        for seed in range(10):
            cfg = make_cfg(seed=seed)
            x = random_image(seed + 50)
            out_k = fft2(dc_forward(x, cfg)).to_complex()
            y_k = cfg.measured.kspace.to_complex()
            on = cfg.mask.phase_lines
            assert np.max(np.abs(out_k[on] - y_k[on])) < 1e-10

    def test_finite_lambda_blend_formula(self):
        lam = 3.5
        cfg = make_cfg(seed=5, lam=lam)
        x = random_image(6)
        out_k = fft2(dc_forward(x, cfg)).to_complex()
        x_k = fft2(x).to_complex()
        y_k = cfg.measured.kspace.to_complex()
        on = cfg.mask.phase_lines
        expect = (x_k[on] + lam * y_k[on]) / (1 + lam)
        assert np.max(np.abs(out_k[on] - expect)) < 1e-12

    def test_shape_mismatch_rejected(self):
        # the operator sees only the height, so a width-only mismatch must be
        # caught by the explicit check
        cfg = make_cfg()  # 8x8
        for h, w in ((16, 16), (8, 16), (16, 8)):
            for fn in (dc_forward, dc_backward):
                with pytest.raises(InvalidShapeError):
                    fn(ComplexImage.zeros(h, w, dtype=np.float64), cfg)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(InvalidParameterError):
            make_cfg(lam=0.0)
        with pytest.raises(InvalidParameterError):
            make_cfg(lam=-2.0)


class TestDcBackward:
    def test_finite_differences(self):
        result = check_dclayer(seed=0)
        assert result.max_error < 1e-7

    def test_empty_mask_passes_gradient_through(self):
        g = random_image(7)
        out = dc_backward(g, empty_cfg(lam=2.0))
        assert np.max(np.abs(out.channels - g.channels)) < 1e-13

    def test_infinite_lambda_full_mask_kills_gradient(self):
        h = 8
        truth = random_image(8)
        mask = generate_mask(Rng(0), h, h, 1.0, 2)
        cfg = DcConfig(measured=apply_encoding(truth, mask), lam=math.inf)
        out = dc_backward(random_image(9), cfg)
        assert np.max(np.abs(out.channels)) < 1e-13

    def test_jacobian_constant_in_linearization_point(self):
        # the backward result cannot depend on any forward input; verify the
        # finite-difference Jacobian matches at two different points
        for seed in (0, 123):
            assert check_dclayer(seed=seed).max_error < 1e-7


class TestDcProperties:
    def test_idempotent_infinite_lambda(self):
        cfg = make_cfg(seed=10)
        x = random_image(11)
        once = dc_forward(x, cfg)
        twice = dc_forward(once, cfg)
        assert np.max(np.abs(twice.channels - once.channels)) < 1e-12

    def test_idempotent_finite_lambda_on_consistent_input(self):
        cfg = make_cfg(seed=12, lam=4.0)
        x = zero_filled(cfg.measured)
        once = dc_forward(x, cfg)
        twice = dc_forward(once, cfg)
        assert np.max(np.abs(twice.channels - once.channels)) < 1e-12

    def test_finite_lambda_contracts_toward_measurements(self):
        # repeated application is not idempotent for finite lambda on
        # inconsistent input: each pass moves sampled coefficients toward the
        # measurements by a factor 1/(1+lam)
        lam = 2.0
        cfg = make_cfg(seed=13, lam=lam)
        x = random_image(14)
        on = cfg.mask.phase_lines
        y_k = cfg.measured.kspace.to_complex()[on]
        k1 = fft2(dc_forward(x, cfg)).to_complex()[on]
        k2 = fft2(dc_forward(dc_forward(x, cfg), cfg)).to_complex()[on]
        r1 = np.max(np.abs(k1 - y_k))
        r2 = np.max(np.abs(k2 - y_k))
        assert r1 > 1e-6  # genuinely inconsistent input
        assert r2 < r1 / (1 + lam) * 1.01

    def test_affine_in_input(self):
        cfg = make_cfg(seed=15, lam=3.0)
        x1, x2 = random_image(16), random_image(17)
        a = 0.3
        mix = ComplexImage(a * x1.channels + (1 - a) * x2.channels)
        lhs = dc_forward(mix, cfg).channels
        rhs = a * dc_forward(x1, cfg).channels + (1 - a) * dc_forward(x2, cfg).channels
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_large_lambda_converges_to_infinite_mode(self):
        base = make_cfg(seed=18)
        x = random_image(19)
        out_inf = dc_forward(x, base).channels
        cfg_big = DcConfig(measured=base.measured, lam=1e6)
        out_big = dc_forward(x, cfg_big).channels
        assert np.max(np.abs(out_big - out_inf)) < 1e-5


def mask_of(kind, h, w):
    if kind == "empty":
        return SamplingMask(h, w, np.zeros(h, dtype=bool))
    if kind == "full":
        return SamplingMask(h, w, np.ones(h, dtype=bool))
    return generate_mask(Rng(h * w), h, w, 2.0, 2)


class TestJacobianPlusZeroFill:
    def test_weight(self):
        assert make_cfg(lam=math.inf).weight == 1.0
        assert make_cfg(lam=2.0).weight == 2.0 / 3.0

    @pytest.mark.parametrize("lam", [math.inf, 2.0])
    def test_zero_fill_is_cached(self, lam, zero_filled_calls):
        cfg = make_cfg(seed=20, lam=lam)
        x = random_image(21)
        dc_forward(x, cfg)
        dc_forward(x, cfg)
        dc_backward(x, cfg)
        assert cfg.zero_fill is cfg.zero_fill
        assert np.array_equal(cfg.zero_fill.channels, zero_filled(cfg.measured).channels)
        assert zero_filled_calls == [cfg.measured]

    @pytest.mark.parametrize("h,w", [(8, 8), (16, 16), (12, 20)])
    @pytest.mark.parametrize("kind", ["empty", "full", "random"])
    @pytest.mark.parametrize("lam", [math.inf, 2.0, 1e6])
    def test_matches_line_replacement(self, lam, kind, h, w):
        truth = random_image(30, h, w)
        cfg = DcConfig(measured=apply_encoding(truth, mask_of(kind, h, w)), lam=lam)
        x = random_image(31, h, w)
        for new, old in ((dc_forward, line_replacement_dc_forward), (dc_backward, line_replacement_dc_backward)):
            got, expect = new(x, cfg).channels, old(x, cfg).channels
            scale = max(np.max(np.abs(expect)), np.max(np.abs(x.channels)))
            assert np.max(np.abs(got - expect)) <= 1e-14 * scale, new.__name__


class TestRealOperatorEquivalence:
    """The two real matrix products against the complex128 round trip through
    the 2-D DFT that they replaced, relative to the larger of the input and
    the expected output. In float32 the new path rounds in float32 where the
    old one rounded only its output."""

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-14), (np.float32, 1e-6)])
    @pytest.mark.parametrize("h,w", [(12, 20), (64, 64), (80, 80)])
    @pytest.mark.parametrize("kind", ["empty", "full", "random"])
    @pytest.mark.parametrize("lam", [math.inf, 2.0, 1e6])
    def test_matches_complex_round_trip(self, lam, kind, h, w, dtype, tol):
        truth = random_image(40, h, w).astype(dtype)
        cfg = DcConfig(measured=apply_encoding(truth, mask_of(kind, h, w)), lam=lam)
        x = random_image(41, h, w).astype(dtype)
        for new, old in ((dc_forward, complex_dc_forward), (dc_backward, complex_dc_backward)):
            got, expect = new(x, cfg).channels, old(x, cfg).channels
            assert got.dtype == expect.dtype == dtype
            scale = max(np.max(np.abs(expect)), np.max(np.abs(x.channels)))
            assert np.max(np.abs(got - expect)) <= tol * scale, new.__name__

    @pytest.mark.parametrize("image_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("meas_dtype", [np.float32, np.float64])
    def test_output_has_the_input_dtype(self, image_dtype, meas_dtype):
        truth = random_image(42).astype(meas_dtype)
        cfg = DcConfig(measured=apply_encoding(truth, mask_of("random", 8, 8)), lam=2.0)
        x = random_image(43).astype(image_dtype)
        assert dc_forward(x, cfg).dtype == image_dtype
        assert dc_backward(x, cfg).dtype == image_dtype
