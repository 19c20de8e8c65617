import numpy as np
import pytest

from mricascade import InvalidParameterError, make_dataset, make_phantom, split_indices
from mricascade.phantom import INTENSITY_RANGE

from oracles import dct2_8x8_coefficients


class TestMakePhantom:
    def test_determinism(self):
        a = make_phantom(32, 32, seed=77)
        b = make_phantom(32, 32, seed=77)
        assert np.array_equal(a.channels, b.channels)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_magnitude_clipped_to_unit(self, seed):
        img = make_phantom(32, 32, seed=seed, dtype=np.float64)
        # float rounding of mag*cos/sin can land a hair above 1
        assert float(np.max(img.magnitude())) <= 1.0 + 1e-12

    def test_phase_is_nonzero(self):
        img = make_phantom(32, 32, seed=5, dtype=np.float64)
        assert np.max(np.abs(img.channels[1])) > 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_nonzero_magnitude_is_at_least_the_intensity_floor(self, seed):
        # every covered pixel sums at least one ellipse value drawn from
        # INTENSITY_RANGE, so no pixel sits strictly between 0 and its floor
        mag = make_phantom(32, 32, seed=seed, dtype=np.float64).magnitude()
        assert np.count_nonzero(mag) > 0
        assert float(np.min(mag[mag > 0])) >= INTENSITY_RANGE[0] - 1e-12

    @pytest.mark.parametrize("height,width", [(12, 20), (20, 12)])
    def test_shape_follows_arguments(self, height, width):
        assert make_phantom(height, width, seed=0).channels.shape == (2, height, width)

    def test_default_dtype_is_float32(self):
        assert make_phantom(16, 16, seed=0).channels.dtype == np.float32


class TestMakeDataset:
    def test_split_disjoint(self):
        train, test = split_indices(10, 0.8)
        assert len(train) == 8 and len(test) == 2
        assert set(train).isdisjoint(test)
        assert sorted(train + test) == list(range(10))

    def test_items_differ(self):
        images = make_dataset(4, 32, 32, seed=3)
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                assert not np.array_equal(images[i].channels, images[j].channels)

    def test_regeneration_identical(self):
        a = make_dataset(3, 16, 16, seed=9)
        b = make_dataset(3, 16, 16, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.channels, y.channels)

    def test_items_are_float32_phantoms_of_derived_seeds(self):
        images = make_dataset(2, 16, 24, seed=4)
        for image in images:
            assert image.channels.dtype == np.float32
            assert image.channels.shape == (2, 16, 24)
        assert not np.array_equal(images[0].channels, make_phantom(16, 24, seed=4).channels)

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            make_dataset(0, 64, 64, seed=0)


class TestCompressibility:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_magnitude_is_sparse_in_dct_domain(self, seed):
        # threshold verified empirically once and frozen: phantoms must be
        # compressible for undersampled recovery to make sense
        img = make_phantom(64, 64, seed=seed, dtype=np.float64)
        coeffs = np.abs(dct2_8x8_coefficients(img.magnitude()))
        small = np.count_nonzero(coeffs < 0.01 * coeffs.max())
        assert small / coeffs.size >= 0.30
