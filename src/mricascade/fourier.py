"""Orthonormal 2D discrete Fourier transform on two-channel complex images.

Both directions carry a 1/sqrt(H*W) factor, so the transform is unitary:
energy is preserved and the inverse is the conjugate transform with the same
normalization. The DC coefficient sits at index (0, 0); any centered-frequency
logic belongs to the sampling masks, not to the transform.

Every size goes through one separable dense transform, F_H @ z @ F_W, with
cached DFT matrices (:func:`dft_matrix`). Each matrix entry is built from the
exact integer phase j*k mod n, so the argument of exp stays below 2*pi and its
roundoff does not grow as n^2 the way it would for the raw product j*k.

No runtime step runs the full transform, which the tests use as a reference:
masks are whole rows, and :mod:`sampling` takes the sampled rows of dft_matrix.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .tensorcore import ComplexImage


@lru_cache(maxsize=None)
def dft_matrix(n: int, sign: int) -> np.ndarray:
    """Unnormalized n x n DFT matrix exp(sign * 2*pi*i * j*k / n), symmetric
    and read-only; ``sign=-1`` is the forward transform, ``+1`` its adjoint."""
    j = np.arange(n)
    m = np.exp(sign * 2j * np.pi * (np.outer(j, j) % n) / n)
    m.setflags(write=False)
    return m


def fft2_complex(z: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Orthonormal 2D DFT over the last two axes; the complex128 DFT matrices
    make the arithmetic complex128 whatever the input dtype."""
    h, w = z.shape[-2], z.shape[-1]
    sign = 1 if inverse else -1
    return (dft_matrix(h, sign) @ z @ dft_matrix(w, sign)) / math.sqrt(h * w)


def fft2(img: ComplexImage) -> ComplexImage:
    """Orthonormal forward 2D DFT: k(u,v) = (HW)^-1/2 sum x(i,j) e^{-2pi i(ui/H+vj/W)}."""
    return ComplexImage.from_complex(fft2_complex(img.to_complex()), dtype=img.dtype)


def ifft2(k: ComplexImage) -> ComplexImage:
    """Inverse of :func:`fft2` up to floating-point roundoff."""
    return ComplexImage.from_complex(fft2_complex(k.to_complex(), inverse=True), dtype=k.dtype)
