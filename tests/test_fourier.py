import numpy as np
import pytest

from mricascade import ComplexImage, Rng, complex_norm_sq, fft2, ifft2

from oracles import naive_dft2


def random_image(seed, h, w, dtype=np.float64):
    return ComplexImage(Rng(seed).gen.standard_normal((2, h, w)).astype(dtype))


def test_delta_image_flat_spectrum():
    img = ComplexImage.zeros(4, 4, dtype=np.float64)
    img.channels[0, 0, 0] = 1.0
    k = fft2(img)
    assert np.allclose(k.channels[0], 0.25, atol=1e-14)
    assert np.allclose(k.channels[1], 0.0, atol=1e-14)


def test_constant_image_concentrates_at_dc():
    img = ComplexImage(np.stack([np.ones((4, 4)), np.zeros((4, 4))]))
    k = fft2(img)
    expected = np.zeros((4, 4))
    expected[0, 0] = 4.0  # sqrt(H*W)
    assert np.allclose(k.channels[0], expected, atol=1e-13)
    assert np.allclose(k.channels[1], 0.0, atol=1e-13)


def test_parseval_energy_preserved():
    img = random_image(0, 8, 8)
    ratio = complex_norm_sq(fft2(img)) / complex_norm_sq(img)
    assert abs(ratio - 1.0) < 1e-12


@pytest.mark.parametrize("h,w", [(8, 8), (64, 64), (80, 80), (96, 120)])
def test_roundtrip_identity(h, w):
    # sizes up to 120 catch DFT-matrix phases that lose digits as j*k grows
    img = random_image(1, h, w)
    back = ifft2(fft2(img))
    scale = np.max(np.abs(img.channels))
    assert np.max(np.abs(back.channels - img.channels)) < 1e-14 * scale


def test_zero_kspace_gives_zero_image():
    img = ifft2(ComplexImage.zeros(6, 8, dtype=np.float64))
    assert np.all(img.channels == 0.0)


def test_dc_only_kspace_gives_constant_image():
    k = ComplexImage.zeros(4, 4, dtype=np.float64)
    k.channels[0, 0, 0] = 1.0
    img = ifft2(k)
    assert np.allclose(img.channels[0], 0.25, atol=1e-14)
    assert np.allclose(img.channels[1], 0.0, atol=1e-14)


def test_linearity():
    x = random_image(2, 8, 8)
    z = random_image(3, 8, 8)
    a, b = 1.7, -0.4
    lhs = fft2(ComplexImage(a * x.channels + b * z.channels)).channels
    rhs = a * fft2(x).channels + b * fft2(z).channels
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("h,w", [(4, 4), (8, 8), (6, 6), (4, 8), (6, 8)])
def test_agrees_with_naive_dft_oracle(h, w):
    # square, rectangular, power-of-two and other sizes
    img = random_image(h * 100 + w, h, w)
    z = img.to_complex()
    got = fft2(img).to_complex()
    expect = naive_dft2(z)
    assert np.max(np.abs(got - expect)) < 1e-10
    got_inv = ifft2(img).to_complex()
    expect_inv = naive_dft2(z, inverse=True)
    assert np.max(np.abs(got_inv - expect_inv)) < 1e-10


def test_float32_images_stay_float32():
    img = random_image(4, 8, 8, dtype=np.float32)
    k = fft2(img)
    assert k.dtype == np.float32
    assert ifft2(k).dtype == np.float32
