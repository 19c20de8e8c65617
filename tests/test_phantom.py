import numpy as np
import pytest

from mricascade import InvalidParameterError, PhantomSpec, make_dataset, make_phantom, split_indices

from oracles import dct2_8x8_coefficients


class TestMakePhantom:
    def test_no_ellipses_gives_zero_image(self):
        img = make_phantom(PhantomSpec(height=16, width=16, n_ellipses=0, seed=0))
        assert np.all(img.channels == 0.0)

    def test_determinism(self):
        spec = PhantomSpec(height=32, width=32, seed=77)
        a = make_phantom(spec)
        b = make_phantom(spec)
        assert np.array_equal(a.channels, b.channels)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_magnitude_clipped_to_unit(self, seed):
        img = make_phantom(PhantomSpec(height=32, width=32, seed=seed), dtype=np.float64)
        # float rounding of mag*cos/sin can land a hair above 1
        assert float(np.max(img.magnitude())) <= 1.0 + 1e-12

    def test_phase_is_nonzero(self):
        img = make_phantom(PhantomSpec(height=32, width=32, seed=5), dtype=np.float64)
        assert np.max(np.abs(img.channels[1])) > 0.0

    def test_requires_complex_valued_output(self):
        with pytest.raises(InvalidParameterError):
            PhantomSpec(phase_scale=0.0)

    @pytest.mark.parametrize(
        "field",
        [
            {"phase_scale": np.nan},
            {"phase_scale": np.inf},
            {"intensity_range": (0.1, np.inf)},
            {"intensity_range": (0.1, np.nan)},
            {"intensity_range": (np.nan, 1.0)},
        ],
        ids=["phase-nan", "phase-inf", "range-inf", "range-nan-hi", "range-nan-lo"],
    )
    def test_rejects_non_finite_values(self, field):
        with pytest.raises(InvalidParameterError):
            PhantomSpec(**field)

    def test_rejects_negative_ellipse_count(self):
        with pytest.raises(InvalidParameterError):
            PhantomSpec(n_ellipses=-1)


class TestMakeDataset:
    def test_split_disjoint(self):
        train, test = split_indices(10, 0.8)
        assert len(train) == 8 and len(test) == 2
        assert set(train).isdisjoint(test)
        assert sorted(train + test) == list(range(10))

    def test_items_differ(self):
        images = make_dataset(4, PhantomSpec(height=32, width=32), seed=3)
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                assert not np.array_equal(images[i].channels, images[j].channels)

    def test_regeneration_identical(self):
        a = make_dataset(3, PhantomSpec(height=16, width=16), seed=9)
        b = make_dataset(3, PhantomSpec(height=16, width=16), seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.channels, y.channels)

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            make_dataset(0, PhantomSpec(), seed=0)


class TestCompressibility:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_magnitude_is_sparse_in_dct_domain(self, seed):
        # threshold verified empirically once and frozen: phantoms must be
        # compressible for undersampled recovery to make sense
        img = make_phantom(PhantomSpec(height=64, width=64, seed=seed), dtype=np.float64)
        coeffs = np.abs(dct2_8x8_coefficients(img.magnitude()))
        small = np.count_nonzero(coeffs < 0.01 * coeffs.max())
        assert small / coeffs.size >= 0.30
