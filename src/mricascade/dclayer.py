"""Data-consistency layer: restore measured k-space coefficients.

On a sampled line the layer blends each coefficient of the input's k-space
with its measured value, ``k <- (k + lam * y) / (1 + lam)``, and leaves every
other coefficient unchanged. With ``w = lam / (1 + lam)`` (``w = 1`` for the
noiseless mode ``lam = inf``, where sampled coefficients are replaced by the
measurements outright) that is the paper's form

    dc(x) = F^H D F x + w * F_u^H y,    D = 1 - w on sampled lines, 1 elsewhere

a fixed linear map plus a scaled copy of the zero-filled image ``F_u^H y``.

Masks are whole phase-encode lines (image rows), so ``D`` scales rows of
k-space and the readout transform along the width cancels against its
inverse: ``F^H D F x = x - w * F_S^H F_S x``, where ``F_S`` holds the |S|
sampled rows of the orthonormal 1-D DFT over the height. The mask owns that
operator: :meth:`SamplingMask.operator` gives it as a real ``[2|S|, 2H]``
matrix ``M`` acting on the two channels stacked into ``[2H, W]``, with ``M^T``
for ``F_S^H``, so

    dc(x) = x - w * M^T (M x) + w * x_u

is two thin real matrix products in the image's precision. The slices of a
volume share a mask, and so share one build of ``M``; each
:class:`DcConfig` holds one ``w * x_u``, multiplied in float64, which
:func:`dc_forward` rounds to the image's precision as it adds it, so one
config serves an image of either precision.

The layer has no trainable parameters. Its Jacobian with respect to the input
is the linear part ``I - w * M^T M``, which is symmetric, so the backward
pass applies it to the upstream gradient. The measurements are per-sample
constants and receive no gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError, InvalidShapeError
# bound here for perfbench/tests/test_perfbench.py::test_tracer_wraps_every_name_callers_use
from .fourier import fft2_complex
from .sampling import Measurements, SamplingMask, zero_filled
from .tensorcore import ComplexImage


def check_lam(lam: float) -> None:
    """The fidelity weight is a positive float or ``math.inf``."""
    if not (lam == math.inf or lam > 0):
        raise InvalidParameterError(f"lam must be > 0 or inf, got {lam}")


@dataclass(frozen=True, eq=False)
class DcConfig:
    """Per-sample constants of the data-consistency step.

    ``lam`` is the fidelity weight: a positive float, or ``math.inf`` for the
    noiseless hard-replacement mode (the default used throughout training).
    """

    measured: Measurements
    lam: float = math.inf

    def __post_init__(self):
        check_lam(self.lam)

    @property
    def mask(self) -> SamplingMask:
        return self.measured.mask

    @property
    def weight(self) -> float:
        """Share of a sampled coefficient taken from the measurement."""
        return 1.0 if self.lam == math.inf else self.lam / (1.0 + self.lam)

    @cached_property
    def zero_fill(self) -> ComplexImage:
        """The zero-filled image ``F_u^H y``, computed on first read."""
        return zero_filled(self.measured)

    @cached_property
    def _measured_part(self) -> np.ndarray:
        """``w * x_u`` as a float64 ``[2H, W]`` array, computed on first read."""
        x_u = self.zero_fill.channels.reshape(2 * self.mask.height, self.mask.width)
        return self.weight * x_u.astype(np.float64)


def _linear_part(img: ComplexImage, cfg: DcConfig) -> np.ndarray:
    """``F^H D F img = x - w * M^T (M x)`` as a ``[2H, W]`` array in img's dtype."""
    if (img.height, img.width) != (cfg.mask.height, cfg.mask.width):
        raise InvalidShapeError(
            f"image is {img.height}x{img.width} but mask is "
            f"{cfg.mask.height}x{cfg.mask.width}"
        )
    x = img.channels.reshape(2 * img.height, img.width)
    m = cfg.mask.operator(img.dtype)
    return x - cfg.weight * (m.T @ (m @ x))


def dc_forward(x: ComplexImage, cfg: DcConfig) -> ComplexImage:
    """Blend the k-space of x with the measurements on the sampled set."""
    out = _linear_part(x, cfg)
    # dtype=: the product is rounded to x's precision before the add
    np.add(out, cfg._measured_part, out=out, dtype=out.dtype)
    return ComplexImage(out.reshape(x.channels.shape))


def dc_backward(grad_out: ComplexImage, cfg: DcConfig) -> ComplexImage:
    """Apply the layer's (constant, symmetric) Jacobian to the gradient."""
    return ComplexImage(_linear_part(grad_out, cfg).reshape(grad_out.channels.shape))
