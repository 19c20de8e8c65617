"""Dense real tensors, the two-channel complex convention, and seeded RNG.

Complex-valued images are stored as two real channels (real, imaginary) in a
``[2, H, W]`` array, so that convolution layers can treat the complex field as
an ordinary two-channel input and every gradient stays real-valued.

Two precisions are supported: float32 (training default) and float64
(verification runs; finite-difference checks are unreliable in float32).
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidShapeError, naming_file

DEFAULT_DTYPE = np.float32

_SUPPORTED_DTYPES = (np.float32, np.float64)


class Rng:
    """Deterministic random source: identical seed, identical draw sequence.

    ``child(i)`` derives an independent stream for worker/per-item use without
    consuming draws from the parent.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")
        self.gen = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, index: int) -> "Rng":
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(int(index),))
        return Rng(int(ss.generate_state(1, dtype=np.uint64)[0]))

    def __repr__(self):
        return f"Rng(seed={self.seed})"


def normal_draw(rng: Rng, shape, std: float, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """Zero-mean i.i.d. normal samples with the given standard deviation.

    Draws in float64 and scales, so the same seed yields the same underlying
    sample stream for every ``std`` (and exact ratios between std choices).
    """
    if std <= 0:
        raise InvalidParameterError(f"std must be > 0, got {std}")
    shape = tuple(int(d) for d in shape)
    return (rng.gen.standard_normal(shape) * std).astype(dtype)


@dataclass(frozen=True, eq=False)
class ComplexImage:
    """H x W complex-valued image stored as two real channels.

    ``channels[0]`` is the real part, ``channels[1]`` the imaginary part.
    H and W must be even and at least 4, which keeps the centered low-frequency
    band and the DFT shift conventions unambiguous.
    """

    channels: np.ndarray

    def __post_init__(self):
        c = self.channels
        if not isinstance(c, np.ndarray) or c.ndim != 3 or c.shape[0] != 2:
            raise InvalidShapeError(
                f"expected a [2, H, W] array, got shape {getattr(c, 'shape', None)}"
            )
        if c.dtype.type not in _SUPPORTED_DTYPES:
            raise InvalidParameterError(f"unsupported dtype {c.dtype}, need float32/float64")
        h, w = c.shape[1], c.shape[2]
        if h < 4 or w < 4 or h % 2 or w % 2:
            raise InvalidShapeError(f"H and W must be even and >= 4, got {h}x{w}")

    @property
    def height(self) -> int:
        return self.channels.shape[1]

    @property
    def width(self) -> int:
        return self.channels.shape[2]

    @property
    def dtype(self):
        return self.channels.dtype

    def to_complex(self) -> np.ndarray:
        """A new H x W complex128 array of the two channels (a copy, not a view)."""
        return self.channels[0].astype(np.float64) + 1j * self.channels[1].astype(np.float64)

    @classmethod
    def from_complex(cls, z: np.ndarray, dtype=DEFAULT_DTYPE):
        """Pack an H x W complex array into two real channels."""
        if z.ndim != 2:
            raise InvalidShapeError(f"expected a 2-d complex array, got shape {z.shape}")
        return cls(np.stack([z.real, z.imag]).astype(dtype))

    @classmethod
    def zeros(cls, height: int, width: int, dtype=DEFAULT_DTYPE):
        return cls(np.zeros((2, height, width), dtype=dtype))

    def astype(self, dtype) -> "ComplexImage":
        return type(self)(self.channels.astype(dtype))

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.channels[0], self.channels[1])


def complex_norm_sq(img: ComplexImage) -> float:
    """Sum over all pixels of re^2 + im^2 (accumulated in float64)."""
    c = img.channels
    return float(np.sum(np.square(c, dtype=np.float64)))


# --- CXT1 binary tensor format ------------------------------------------------
#
# magic "CXT1", u8 precision code (4 = f32, 8 = f64), u8 rank,
# rank x u32 little-endian dims, then row-major little-endian scalars.

_HEAD = struct.Struct("<4sBB")
_MAGIC = b"CXT1"
_CODE_TO_DTYPE = {4: np.dtype("<f4"), 8: np.dtype("<f8")}
_DTYPE_TO_CODE = {np.float32: 4, np.float64: 8}


def write_tensor(f, arr: np.ndarray) -> None:
    """Write one tensor in CXT1 format to a binary stream."""
    code = _DTYPE_TO_CODE.get(arr.dtype.type)
    if code is None:
        raise InvalidParameterError(f"CXT1 stores float32/float64 only, got {arr.dtype}")
    if arr.ndim == 0 or arr.ndim > 255:
        raise InvalidShapeError(f"CXT1 rank must be in [1, 255], got {arr.ndim}")
    f.write(_HEAD.pack(_MAGIC, code, arr.ndim))
    f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    f.write(np.ascontiguousarray(arr, dtype=_CODE_TO_DTYPE[code]).tobytes())


def read_tensor(f) -> np.ndarray:
    """Read one CXT1 tensor from a binary stream."""
    head = f.read(_HEAD.size)
    if len(head) != _HEAD.size or head[:4] != _MAGIC:
        raise InvalidParameterError("not a CXT1 tensor (bad magic)")
    _, code, rank = _HEAD.unpack(head)
    if code not in _CODE_TO_DTYPE:
        raise InvalidParameterError(f"unknown CXT1 precision code {code}")
    if rank == 0:
        raise InvalidShapeError("CXT1 rank must be >= 1")
    dims_raw = f.read(4 * rank)
    if len(dims_raw) != 4 * rank:
        raise InvalidParameterError("truncated CXT1 header")
    shape = struct.unpack(f"<{rank}I", dims_raw)
    if any(d < 1 for d in shape):
        raise InvalidShapeError(f"CXT1 dims must be >= 1, got {shape}")
    dtype = _CODE_TO_DTYPE[code]
    nbytes = math.prod(shape) * dtype.itemsize
    # checked before reading: a corrupt dim can ask for more than can be allocated
    start = f.tell()
    if nbytes > f.seek(0, io.SEEK_END) - start:
        raise InvalidParameterError("truncated CXT1 payload")
    f.seek(start)
    payload = f.read(nbytes)
    return np.frombuffer(payload, dtype=dtype).reshape(shape).astype(dtype.newbyteorder("="))


def save_tensor(path, arr: np.ndarray) -> None:
    with open(path, "wb") as f:
        write_tensor(f, arr)


def load_tensor(path) -> np.ndarray:
    """Read a file that holds one CXT1 tensor and nothing after it; malformed
    content raises an error naming ``path``."""
    with open(path, "rb") as f, naming_file(path):
        arr = read_tensor(f)
        if f.read(1):
            raise InvalidParameterError("trailing bytes after the tensor")
    return arr


def save_image(path, img: ComplexImage) -> None:
    save_tensor(path, img.channels)


def load_image(path) -> ComplexImage:
    """Read a ``[2, H, W]`` CXT1 image; NaN or inf raises InvalidParameterError.
    Every error names ``path``."""
    channels = load_tensor(path)
    with naming_file(path):
        img = ComplexImage(channels)
        if not np.isfinite(img.channels).all():
            raise InvalidParameterError("image has non-finite values")
    return img
