"""Synthetic complex-valued phantoms: random ellipse stacks with smooth phase.

Piecewise-constant ellipses keep the ground truth unambiguous and make
aliasing structure easy to see. A nonzero smooth phase field is mandatory:
real MR images are complex-valued, and a zero-phase dataset would let a
network ignore the imaginary channel and hide bugs there.

Every phantom sums :data:`N_ELLIPSES` ellipses, each of a constant magnitude
drawn uniformly from :data:`INTENSITY_RANGE`, clips the sum to [0, 1], and
multiplies it by a quadratic phase field whose six coefficients are drawn
uniformly from [-:data:`PHASE_SCALE`, :data:`PHASE_SCALE`] radians.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError
from .tensorcore import ComplexImage, Rng

N_ELLIPSES = 8
INTENSITY_RANGE = (0.1, 1.0)
PHASE_SCALE = 1.0


def make_phantom(height: int, width: int, seed: int, dtype=np.float32) -> ComplexImage:
    """Sum of randomly placed rotated ellipses, clipped to [0, 1], modulated
    by a smooth polynomial phase; ``seed`` drives every random draw."""
    rng = Rng(seed)
    ys = np.linspace(-1.0, 1.0, height)
    xs = np.linspace(-1.0, 1.0, width)
    yy, xx = np.meshgrid(ys, xs, indexing="ij")

    mag = np.zeros((height, width), dtype=np.float64)
    for _ in range(N_ELLIPSES):
        cy, cx = rng.gen.uniform(-0.6, 0.6, 2)
        a, b = rng.gen.uniform(0.1, 0.5, 2)
        theta = rng.gen.uniform(0.0, np.pi)
        value = rng.gen.uniform(*INTENSITY_RANGE)
        ct, st = np.cos(theta), np.sin(theta)
        dx, dy = xx - cx, yy - cy
        u = dx * ct + dy * st
        v = -dx * st + dy * ct
        mag[(u / a) ** 2 + (v / b) ** 2 <= 1.0] += value
    np.clip(mag, 0.0, 1.0, out=mag)

    c = rng.gen.uniform(-PHASE_SCALE, PHASE_SCALE, 6)
    phase = c[0] + c[1] * xx + c[2] * yy + c[3] * xx * xx + c[4] * xx * yy + c[5] * yy * yy
    return ComplexImage.from_complex(mag * np.exp(1j * phase), dtype=dtype)


def dataset_seeds(n: int, seed: int) -> list:
    """The seeds of an n-phantom dataset: item ``i`` draws from child ``i`` of
    the master ``seed``, ``Rng(seed).child(i).seed``."""
    if n < 1:
        raise InvalidParameterError(f"dataset size must be >= 1, got {n}")
    master = Rng(seed)
    return [master.child(i).seed for i in range(n)]


def make_dataset(n: int, height: int, width: int, seed: int) -> list:
    """n float32 phantoms, one per seed of :func:`dataset_seeds`."""
    return [make_phantom(height, width, s) for s in dataset_seeds(n, seed)]


def split_indices(n: int, train_fraction: float = 0.8):
    """Disjoint train/test index lists: the first round(n * fraction) items
    train, the rest test."""
    if not (0.0 < train_fraction < 1.0):
        raise InvalidParameterError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n_train = int(round(n * train_fraction))
    n_train = min(max(n_train, 1), n - 1) if n > 1 else n
    return list(range(n_train)), list(range(n_train, n))
