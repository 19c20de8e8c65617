"""Data-consistency layer: restore measured k-space coefficients.

The forward pass transforms the input image to k-space, blends every sampled
coefficient with its measured value, and transforms back:

    on a sampled line:   k <- (k + lam * y) / (1 + lam)
    elsewhere:           k unchanged

``lam = inf`` is the noiseless mode: sampled coefficients are replaced by the
measurements outright (no large-lambda approximation, no precision loss).
The layer has no trainable parameters. Its Jacobian with respect to the input
is the fixed linear map ifft2 . diag(weights) . fft2; under the orthonormal
transform convention that map is self-adjoint, so the backward pass applies
the same operator to the upstream gradient, treating the two channels as one
complex field. The measurements are per-sample constants and receive no
gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError, InvalidShapeError
from .fourier import fft2_complex
from .sampling import Measurements, SamplingMask
from .tensorcore import ComplexImage


@dataclass(frozen=True, eq=False)
class DcConfig:
    """Per-sample constants of the data-consistency step.

    ``lam`` is the fidelity weight: a positive float, or ``math.inf`` for the
    noiseless hard-replacement mode (the default used throughout training).
    """

    measured: Measurements
    lam: float = math.inf

    def __post_init__(self):
        if not (self.lam == math.inf or self.lam > 0):
            raise InvalidParameterError(f"lam must be > 0 or inf, got {self.lam}")

    @property
    def mask(self) -> SamplingMask:
        return self.measured.mask

    @property
    def infinite(self) -> bool:
        return self.lam == math.inf


def _check_shapes(img: ComplexImage, cfg: DcConfig) -> None:
    if (img.height, img.width) != (cfg.mask.height, cfg.mask.width):
        raise InvalidShapeError(
            f"image is {img.height}x{img.width} but mask is "
            f"{cfg.mask.height}x{cfg.mask.width}"
        )


def dc_forward(x: ComplexImage, cfg: DcConfig) -> ComplexImage:
    """Blend the k-space of x with the measurements on the sampled set."""
    _check_shapes(x, cfg)
    k = fft2_complex(x.to_complex())
    lines = cfg.mask.phase_lines
    y = cfg.measured.kspace.to_complex()
    if cfg.infinite:
        k[lines, :] = y[lines, :]
    else:
        k[lines, :] = (k[lines, :] + cfg.lam * y[lines, :]) / (1.0 + cfg.lam)
    return ComplexImage.from_complex(fft2_complex(k, inverse=True), dtype=x.dtype)


def dc_backward(grad_out: ComplexImage, cfg: DcConfig) -> ComplexImage:
    """Apply the layer's (constant, self-adjoint) Jacobian to the gradient."""
    _check_shapes(grad_out, cfg)
    k = fft2_complex(grad_out.to_complex())
    lines = cfg.mask.phase_lines
    if cfg.infinite:
        k[lines, :] = 0.0
    else:
        k[lines, :] /= 1.0 + cfg.lam
    return ComplexImage.from_complex(fft2_complex(k, inverse=True), dtype=grad_out.dtype)
