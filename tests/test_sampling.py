import numpy as np
import pytest

from mricascade import (
    ComplexImage,
    InvalidParameterError,
    InvalidShapeError,
    Measurements,
    Rng,
    SamplingMask,
    apply_encoding,
    fft2,
    generate_mask,
    ifft2,
    zero_filled,
)
from mricascade.phantom import make_phantom
from mricascade.sampling import low_frequency_lines
from mricascade.training import mse_loss

from oracles import naive_dft2


def random_image(seed, h, w, dtype=np.float64):
    return ComplexImage(Rng(seed).gen.standard_normal((2, h, w)).astype(dtype))


class TestGenerateMask:
    def test_acceleration_one_keeps_everything(self):
        mask = generate_mask(Rng(0), 32, 32, acceleration=1.0, n_low=4)
        assert mask.line_count == 32
        assert np.all(mask.phase_lines)

    def test_scanner_scale_budget(self):
        # 192-line grid, 3-fold acceleration, eight center lines
        mask = generate_mask(Rng(7), 192, 190, acceleration=3.0, n_low=8)
        assert mask.line_count == 64
        assert np.all(mask.phase_lines[low_frequency_lines(192, 8)])

    def test_six_fold_budget(self):
        mask = generate_mask(Rng(7), 64, 64, acceleration=6.0, n_low=8)
        assert mask.line_count == 11  # round(64/6)
        assert np.all(mask.phase_lines[low_frequency_lines(64, 8)])

    def test_center_band_offsets(self):
        # offsets -n_low/2 .. n_low/2 - 1 in centered ordering, mapped mod H
        idx = low_frequency_lines(64, 8)
        assert sorted(idx.tolist()) == [0, 1, 2, 3, 60, 61, 62, 63]

    def test_rejects_overlarge_n_low(self):
        with pytest.raises(InvalidParameterError):
            generate_mask(Rng(0), 64, 64, acceleration=6.0, n_low=12)

    def test_rejects_acceleration_below_one(self):
        with pytest.raises(InvalidParameterError):
            generate_mask(Rng(0), 64, 64, acceleration=0.5, n_low=8)

    def test_rejects_nan_acceleration(self):
        with pytest.raises(InvalidParameterError, match="acceleration must be >= 1"):
            generate_mask(Rng(0), 64, 64, acceleration=float("nan"), n_low=8)

    @pytest.mark.parametrize("acc", [100.0, 33.0, float("inf")])
    def test_rejects_empty_line_budget(self, acc):
        # round(16 / acc) == 0: a mask that samples no line measures nothing
        with pytest.raises(InvalidParameterError, match="samples no line"):
            generate_mask(Rng(0), 16, 16, acceleration=acc, n_low=0)

    def test_one_line_budget_is_accepted(self):
        assert generate_mask(Rng(0), 16, 16, acceleration=16.0, n_low=0).line_count == 1

    @pytest.mark.parametrize("h,acc", [(64, 2.0), (64, 3.0), (64, 4.0), (128, 3.0), (96, 6.0)])
    def test_exact_line_budget(self, h, acc):
        for seed in range(5):
            mask = generate_mask(Rng(seed), h, h, acceleration=acc, n_low=8)
            assert mask.line_count == round(h / acc)

    def test_determinism(self):
        a = generate_mask(Rng(5), 64, 64, 3.0, 8)
        b = generate_mask(Rng(5), 64, 64, 3.0, 8)
        assert np.array_equal(a.phase_lines, b.phase_lines)

    def test_frequency_encode_fully_sampled_representation(self):
        # the mask is a per-line pattern: constant along width by construction
        mask = generate_mask(Rng(1), 32, 48, 4.0, 4)
        assert mask.width == 48
        assert mask.phase_lines.shape == (32,)

    def test_tensor_roundtrip(self):
        mask = generate_mask(Rng(2), 32, 32, 4.0, 4)
        back = SamplingMask.from_tensor(mask.to_tensor(), width=32)
        assert np.array_equal(back.phase_lines, mask.phase_lines)

    def test_tensor_is_float32_zero_one(self):
        mask = generate_mask(Rng(2), 32, 32, 4.0, 4)
        tensor = mask.to_tensor()
        assert tensor.dtype == np.float32 and tensor.shape == (32,)
        assert np.array_equal(tensor, mask.phase_lines.astype(np.float64))


class TestApplyEncoding:
    def test_full_mask_is_plain_fft(self):
        img = random_image(0, 8, 8)
        mask = generate_mask(Rng(0), 8, 8, 1.0, 2)
        meas = apply_encoding(img, mask)
        assert np.array_equal(meas.kspace.channels, fft2(img).channels)

    def test_all_false_mask_annihilates(self):
        img = random_image(1, 8, 8)
        mask = SamplingMask(8, 8, np.zeros(8, dtype=bool))
        meas = apply_encoding(img, mask)
        assert np.all(meas.kspace.channels == 0.0)

    def test_matches_dft_oracle_on_and_off_support(self):
        img = random_image(2, 8, 8)
        mask = generate_mask(Rng(3), 8, 8, 2.0, 2)
        meas = apply_encoding(img, mask)
        expect = naive_dft2(img.to_complex())
        got = meas.kspace.to_complex()
        on = mask.phase_lines
        assert np.max(np.abs(got[on] - expect[on])) < 1e-10
        assert np.all(got[~on] == 0.0)

    def test_shape_mismatch_rejected(self):
        img = random_image(0, 8, 8)
        mask = generate_mask(Rng(0), 16, 16, 2.0, 2)
        with pytest.raises(InvalidShapeError):
            apply_encoding(img, mask)


def row_masks(h, w):
    """An empty, a one-line, a random and a full mask of one size."""
    one = np.zeros(h, dtype=bool)
    one[h // 3] = True
    return {
        "empty": SamplingMask(h, w, np.zeros(h, dtype=bool)),
        "one-line": SamplingMask(h, w, one),
        "random": generate_mask(Rng(h + w), h, w, 3.0, 2),
        "full": SamplingMask(h, w, np.ones(h, dtype=bool)),
    }


class TestSampledRowsMatchFullDft:
    """The encoding and the zero-fill compute only the sampled rows; the
    reference is the full 2-D DFT restricted to the mask, and its inverse."""

    @pytest.mark.parametrize("kind", ["empty", "one-line", "random", "full"])
    @pytest.mark.parametrize("h,w", [(8, 8), (12, 20), (64, 64), (80, 80)])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-14), (np.float32, 1e-6)])
    def test_encoding_and_zero_fill(self, kind, h, w, dtype, tol):
        img = random_image(h * w, h, w, dtype)
        mask = row_masks(h, w)[kind]
        on = mask.phase_lines[None, :, None]
        expect_k = np.where(on, fft2(img).channels, 0)
        meas = apply_encoding(img, mask)
        x_u = zero_filled(meas)
        expect_x = ifft2(ComplexImage(expect_k)).channels
        for got, expect in ((meas.kspace.channels, expect_k), (x_u.channels, expect_x)):
            assert got.dtype == dtype
            assert np.max(np.abs(got - expect)) <= tol * np.max(np.abs(expect))
        assert np.all(meas.kspace.channels[:, ~mask.phase_lines] == 0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_nan_pixel_leaves_off_support_rows_exactly_zero(self, dtype):
        img = random_image(7, 16, 16, dtype)
        img.channels[1, 5, 9] = np.nan
        mask = generate_mask(Rng(8), 16, 16, 3.0, 4)
        k = apply_encoding(img, mask).kspace.channels
        assert np.all(np.isnan(k[:, mask.phase_lines]))
        assert np.all(k[:, ~mask.phase_lines] == 0)


class TestMeasurements:
    def test_rejects_nonzero_off_support(self):
        img = random_image(4, 8, 8)
        mask = SamplingMask(8, 8, np.zeros(8, dtype=bool))
        with pytest.raises(InvalidParameterError):
            Measurements(kspace=fft2(img), mask=mask)


class TestZeroFilled:
    def test_full_mask_roundtrip(self):
        img = random_image(5, 8, 8)
        meas = apply_encoding(img, generate_mask(Rng(0), 8, 8, 1.0, 2))
        back = zero_filled(meas)
        assert np.max(np.abs(back.channels - img.channels)) < 1e-12

    def test_all_false_mask_gives_zero_image(self):
        mask = SamplingMask(8, 8, np.zeros(8, dtype=bool))
        meas = Measurements(kspace=ComplexImage.zeros(8, 8, dtype=np.float64), mask=mask)
        assert np.all(zero_filled(meas).channels == 0.0)

    def test_undersampled_phantom_has_positive_error(self):
        truth = make_phantom(64, 64, seed=3, dtype=np.float64)
        mask = generate_mask(Rng(9), 64, 64, 3.0, 8)
        x_u = zero_filled(apply_encoding(truth, mask))
        assert mse_loss(x_u, truth)[0] > 0.0

    def test_restriction_idempotent(self):
        # re-encoding the zero-filled reconstruction returns the measurements
        img = random_image(6, 16, 16)
        mask = generate_mask(Rng(4), 16, 16, 2.0, 4)
        meas = apply_encoding(img, mask)
        again = apply_encoding(zero_filled(meas), mask)
        assert np.max(np.abs(again.kspace.channels - meas.kspace.channels)) < 1e-12
