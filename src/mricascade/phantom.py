"""Synthetic complex-valued phantoms: random ellipse stacks with smooth phase.

Piecewise-constant ellipses keep the ground truth unambiguous and make
aliasing structure easy to see. A nonzero smooth phase field is mandatory:
real MR images are complex-valued, and a zero-phase dataset would let a
network ignore the imaginary channel and hide bugs there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError
from .tensorcore import ComplexImage, Rng


@dataclass(frozen=True)
class PhantomSpec:
    """Recipe for one phantom.

    Parameters
    ----------
    height, width : int
        Image dimensions (even, >= 4).
    n_ellipses : int
        Number of ellipses summed into the magnitude image (typically 4-10).
    intensity_range : tuple
        Per-ellipse constant magnitude is drawn uniformly from this finite,
        nonnegative range; the summed magnitude is clipped to [0, 1].
    phase_scale : float
        Coefficients of the low-order polynomial phase field are drawn
        uniformly from [-phase_scale, phase_scale] radians. Must be finite
        and positive.
    seed : int
        Drives every random draw; identical spec, identical phantom.
    """

    height: int = 64
    width: int = 64
    n_ellipses: int = 8
    intensity_range: tuple = (0.1, 1.0)
    phase_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_ellipses < 0:
            raise InvalidParameterError(f"n_ellipses must be >= 0, got {self.n_ellipses}")
        lo, hi = self.intensity_range
        # NaN fails every comparison, so the `not` forms below reject it
        if not 0 <= lo <= hi < np.inf:
            raise InvalidParameterError(f"bad intensity range {self.intensity_range}")
        if not 0 < self.phase_scale < np.inf:
            raise InvalidParameterError(
                f"phase_scale must be finite and > 0 (phantoms are complex-valued), got {self.phase_scale}"
            )


def make_phantom(spec: PhantomSpec, dtype=np.float32) -> ComplexImage:
    """Sum of randomly placed rotated ellipses, clipped to [0, 1], modulated
    by a smooth polynomial phase."""
    rng = Rng(spec.seed)
    ys = np.linspace(-1.0, 1.0, spec.height)
    xs = np.linspace(-1.0, 1.0, spec.width)
    yy, xx = np.meshgrid(ys, xs, indexing="ij")

    mag = np.zeros((spec.height, spec.width), dtype=np.float64)
    lo, hi = spec.intensity_range
    for _ in range(spec.n_ellipses):
        cy, cx = rng.gen.uniform(-0.6, 0.6, 2)
        a, b = rng.gen.uniform(0.1, 0.5, 2)
        theta = rng.gen.uniform(0.0, np.pi)
        value = rng.gen.uniform(lo, hi)
        ct, st = np.cos(theta), np.sin(theta)
        u = (xx - cx) * ct + (yy - cy) * st
        v = -(xx - cx) * st + (yy - cy) * ct
        mag[(u / a) ** 2 + (v / b) ** 2 <= 1.0] += value
    np.clip(mag, 0.0, 1.0, out=mag)

    c = rng.gen.uniform(-spec.phase_scale, spec.phase_scale, 6)
    phase = c[0] + c[1] * xx + c[2] * yy + c[3] * xx * xx + c[4] * xx * yy + c[5] * yy * yy
    return ComplexImage.from_complex(mag * np.exp(1j * phase), dtype=dtype)


def make_dataset(n: int, template: PhantomSpec, seed: int, dtype=np.float32) -> list:
    """n phantoms from per-item seeds derived from one master seed."""
    if n < 1:
        raise InvalidParameterError(f"dataset size must be >= 1, got {n}")
    master = Rng(seed)
    return [
        make_phantom(replace(template, seed=master.child(i).seed), dtype=dtype) for i in range(n)
    ]


def split_indices(n: int, train_fraction: float = 0.8):
    """Disjoint train/test index lists: the first round(n * fraction) items
    train, the rest test."""
    if not (0.0 < train_fraction < 1.0):
        raise InvalidParameterError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n_train = int(round(n * train_fraction))
    n_train = min(max(n_train, 1), n - 1) if n > 1 else n
    return list(range(n_train)), list(range(n_train, n))
