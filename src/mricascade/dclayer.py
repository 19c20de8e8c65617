"""Data-consistency layer: restore measured k-space coefficients.

On a sampled line the layer blends each coefficient of the input's k-space
with its measured value, ``k <- (k + lam * y) / (1 + lam)``, and leaves every
other coefficient unchanged. With ``w = lam / (1 + lam)`` (``w = 1`` for the
noiseless mode ``lam = inf``, where sampled coefficients are replaced by the
measurements outright) that is the paper's form

    dc(x) = F^H D F x + w * F_u^H y,    D = 1 - w on sampled lines, 1 elsewhere

a fixed linear map plus a scaled copy of the zero-filled image ``F_u^H y``.
The layer has no trainable parameters. Its Jacobian with respect to the input
is the linear part ``F^H D F``; under the orthonormal transform convention
that map is self-adjoint, so the backward pass applies it to the upstream
gradient, treating the two channels as one complex field. The measurements
are per-sample constants and receive no gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError, InvalidShapeError
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
        return self.weight * self.zero_fill.to_complex()


def _jacobian(img: ComplexImage, cfg: DcConfig) -> np.ndarray:
    """``F^H D F img`` as a complex128 array: sampled lines scaled by 1 - w."""
    if (img.height, img.width) != (cfg.mask.height, cfg.mask.width):
        raise InvalidShapeError(
            f"image is {img.height}x{img.width} but mask is "
            f"{cfg.mask.height}x{cfg.mask.width}"
        )
    k = fft2_complex(img.to_complex())
    k[cfg.mask.phase_lines, :] *= 1.0 - cfg.weight
    return fft2_complex(k, inverse=True)


def dc_forward(x: ComplexImage, cfg: DcConfig) -> ComplexImage:
    """Blend the k-space of x with the measurements on the sampled set."""
    return ComplexImage.from_complex(_jacobian(x, cfg) + cfg._measured_part, dtype=x.dtype)


def dc_backward(grad_out: ComplexImage, cfg: DcConfig) -> ComplexImage:
    """Apply the layer's (constant, self-adjoint) Jacobian to the gradient."""
    return ComplexImage.from_complex(_jacobian(grad_out, cfg), dtype=grad_out.dtype)
