"""Cartesian undersampling: mask generation, encoding, zero-filled recon.

Masks live on whole phase-encode lines (image rows); the frequency-encode
direction (columns) is always fully sampled. A fixed count of lines nearest
DC is always acquired, and the remaining budget is drawn without replacement
with probability proportional to a zero-mean Gaussian over the centered line
offset. Budgets are exact (``round(H / acceleration)`` lines) so that error
comparisons across masks are fair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError, InvalidShapeError
from .fourier import KSpace, fft2, ifft2
from .tensorcore import ComplexImage, Rng


@dataclass(frozen=True, eq=False)
class SamplingMask:
    """Boolean per-line acquisition pattern, broadcast along the width.

    Parameters
    ----------
    height, width : int
        Image dimensions the mask applies to.
    phase_lines : np.ndarray
        Boolean vector of length ``height`` in unshifted k-space ordering
        (DC at index 0); True marks an acquired line.
    """

    height: int
    width: int
    phase_lines: np.ndarray

    def __post_init__(self):
        pl = np.asarray(self.phase_lines, dtype=bool)
        if pl.shape != (self.height,):
            raise InvalidShapeError(
                f"phase_lines must have shape ({self.height},), got {pl.shape}"
            )
        object.__setattr__(self, "phase_lines", pl)

    @property
    def line_count(self) -> int:
        return int(np.count_nonzero(self.phase_lines))

    @cached_property
    def dc_operators(self) -> dict:
        """The data-consistency operator of this mask by dtype, filled in by
        :mod:`dclayer` on first use. It lives and dies with the mask, so
        images that share a mask share one build."""
        return {}

    def to_tensor(self, dtype=np.float32) -> np.ndarray:
        """0/1 vector of length H, the serialized form of the mask."""
        return self.phase_lines.astype(dtype)

    @classmethod
    def from_tensor(cls, values: np.ndarray, width: int) -> "SamplingMask":
        """Parse the 0/1 form; other values (NaN too) and empty masks are rejected."""
        values = np.asarray(values)
        if values.ndim != 1:
            raise InvalidShapeError(f"mask tensor must be 1-d, got shape {values.shape}")
        if not np.all((values == 0) | (values == 1)):
            raise InvalidParameterError("mask tensor values must be 0 or 1")
        if not np.any(values):
            raise InvalidParameterError("mask tensor samples no line")
        return cls(height=values.shape[0], width=width, phase_lines=values != 0)


def centered_offsets(height: int) -> np.ndarray:
    """Centered frequency offset of every unshifted line index 0..H-1.

    Offset o maps to unshifted index o mod H; for even H the offsets run
    -H/2 .. H/2 - 1.
    """
    idx = np.arange(height)
    return np.where(idx < height // 2, idx, idx - height)


def low_frequency_lines(height: int, n_low: int) -> np.ndarray:
    """Unshifted indices of the n_low lines nearest DC in centered ordering."""
    offsets = range(-(n_low // 2), n_low - n_low // 2)
    return np.array([o % height for o in offsets], dtype=np.intp)


def generate_mask(rng: Rng, height: int, width: int, acceleration: float, n_low: int) -> SamplingMask:
    """Draw a variable-density Cartesian line mask.

    The ``n_low`` lines nearest DC are always acquired and count toward the
    budget of ``round(height / acceleration)`` lines. The remaining lines are
    sampled without replacement with probability proportional to a zero-mean
    Gaussian density over the centered offset with standard deviation
    ``height / 6`` (about 3 sigma at the band edge).

    Raises
    ------
    InvalidParameterError
        If ``acceleration`` is below 1 or NaN, the line budget is below 1, or
        ``n_low`` exceeds the line budget.
    """
    if height < 2 or height % 2:
        raise InvalidParameterError(f"height must be even and >= 2, got {height}")
    if not acceleration >= 1:  # NaN too
        raise InvalidParameterError(f"acceleration must be >= 1, got {acceleration}")
    if n_low < 0:
        raise InvalidParameterError(f"n_low must be >= 0, got {n_low}")
    budget = int(round(height / acceleration))
    if budget < 1:
        raise InvalidParameterError(f"the line budget round({height}/{acceleration})={budget} samples no line")
    if n_low > budget:
        raise InvalidParameterError(
            f"n_low={n_low} exceeds the line budget round({height}/{acceleration})={budget}"
        )

    lines = np.zeros(height, dtype=bool)
    lines[low_frequency_lines(height, n_low)] = True

    remaining = budget - n_low
    if remaining > 0:
        candidates = np.flatnonzero(~lines)
        std = height / 6.0
        offs = centered_offsets(height)[candidates].astype(np.float64)
        density = np.exp(-0.5 * (offs / std) ** 2)
        chosen = rng.gen.choice(
            candidates, size=remaining, replace=False, p=density / density.sum()
        )
        lines[chosen] = True

    return SamplingMask(height=height, width=width, phase_lines=lines)


@dataclass(frozen=True, eq=False)
class Measurements:
    """Acquired k-space: coefficients on the sampled set, exact zeros off it."""

    kspace: KSpace
    mask: SamplingMask

    def __post_init__(self):
        k, m = self.kspace, self.mask
        if (k.height, k.width) != (m.height, m.width):
            raise InvalidShapeError(
                f"kspace is {k.height}x{k.width} but mask is {m.height}x{m.width}"
            )
        if np.any(k.channels[:, ~m.phase_lines, :]):
            raise InvalidParameterError("measurements must be exactly zero off the sampled set")


def apply_encoding(img: ComplexImage, mask: SamplingMask) -> Measurements:
    """Undersampled Fourier encoding: fft2 followed by restriction to the mask."""
    if (img.height, img.width) != (mask.height, mask.width):
        raise InvalidShapeError(
            f"image is {img.height}x{img.width} but mask is {mask.height}x{mask.width}"
        )
    k = fft2(img)
    # where, not multiply: off-support entries must be exact zeros even if a
    # pathological input put non-finite values into k-space
    kept = np.where(mask.phase_lines[None, :, None], k.channels, k.dtype.type(0))
    return Measurements(kspace=KSpace(kept), mask=mask)


def zero_filled(meas: Measurements) -> ComplexImage:
    """Adjoint reconstruction: inverse DFT of the zero-padded measurements."""
    return ifft2(meas.kspace)
