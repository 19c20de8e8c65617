"""Cartesian undersampling: mask generation, encoding, zero-filled recon.

Masks live on whole phase-encode lines (image rows); the frequency-encode
direction (columns) is always fully sampled. A fixed count of lines nearest
DC is always acquired, and the remaining budget is drawn without replacement
with probability proportional to a zero-mean Gaussian over the centered line
offset. Budgets are exact (``round(H / acceleration)`` lines) so that error
comparisons across masks are fair.

Masks are whole rows, so the acquisition ``F_u`` is the 2-D DFT on the sampled
rows S alone, and only the rows ``F_H[S]`` of the height DFT are needed: the
encoding is ``F_H[S] x F_W``, the zero-fill ``F_H[S]^H y_S F_W^H`` (both over
sqrt(HW), in complex128), and the data-consistency layer uses the mask's real
form of ``F_H[S]``, :meth:`SamplingMask.operator`. No step runs a full 2-D DFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, InvalidShapeError
from .fourier import dft_matrix
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

    _operators: dict = field(default_factory=dict, init=False, repr=False)

    def operator(self, dtype) -> np.ndarray:
        """The sampled rows ``F_S = C + iS = dft_matrix(H, -1)[phase_lines] / sqrt(H)``
        of the orthonormal 1-D DFT as the real ``[2|S|, 2H]`` matrix
        ``M = [[C, -S], [S, C]]`` in ``dtype``: built in float64 once per dtype,
        cast, and kept on the mask, so images that share a mask share one build."""
        key = np.dtype(dtype)
        if key not in self._operators:
            f_s = dft_matrix(self.height, -1)[self.phase_lines] / math.sqrt(self.height)
            m = np.block([[f_s.real, -f_s.imag], [f_s.imag, f_s.real]])
            self._operators[key] = m.astype(key, copy=False)
        return self._operators[key]

    def to_tensor(self) -> np.ndarray:
        """0/1 float32 vector of length H, the serialized form of the mask."""
        return self.phase_lines.astype(np.float32)

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

    kspace: ComplexImage
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
    """Undersampled Fourier encoding ``y = F_u x``: the 2-D DFT on the sampled
    rows only, written into a k-space whose other rows are never touched, so
    they are exact zeros whatever the image holds."""
    if (img.height, img.width) != (mask.height, mask.width):
        raise InvalidShapeError(
            f"image is {img.height}x{img.width} but mask is {mask.height}x{mask.width}"
        )
    h, w, s = img.height, img.width, mask.phase_lines
    y = (dft_matrix(h, -1)[s] @ img.to_complex() @ dft_matrix(w, -1)) / math.sqrt(h * w)
    k = np.zeros_like(img.channels)
    k[0, s], k[1, s] = y.real, y.imag
    return Measurements(kspace=ComplexImage(k), mask=mask)


def zero_filled(meas: Measurements) -> ComplexImage:
    """Adjoint reconstruction ``x_u = F_u^H y``, from the sampled rows alone."""
    k, s = meas.kspace, meas.mask.phase_lines
    h, w = k.height, k.width
    x = (dft_matrix(h, 1)[:, s] @ k.to_complex()[s] @ dft_matrix(w, 1)) / math.sqrt(h * w)
    return ComplexImage.from_complex(x, dtype=k.dtype)
