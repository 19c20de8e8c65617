"""Output checks that do not trust the code under test.

The reference forward pass re-implements the cascade in float64 with
``numpy.fft`` and shifted-add convolution, so it shares no arithmetic with
the package (radix-2/dense DFT, im2col). It reads only the model's weights.
"""

from __future__ import annotations

import numpy as np

DC_TOL = 1e-4  # float32 gate of the hard data-consistency criterion
MSE_RTOL = 1e-4  # admits float32 reordering, not a wrong network


def as_complex(channels: np.ndarray) -> np.ndarray:
    return channels[0].astype(np.float64) + 1j * channels[1].astype(np.float64)


def conv(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    n_out, n_in, k, _ = w.shape
    p = (k - 1) // 2
    h, wd = x.shape[1:]
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    out = np.zeros((n_out, h, wd))
    for di in range(k):
        for dj in range(k):
            out += np.tensordot(w[:, :, di, dj], xp[:, di : di + h, dj : dj + wd], axes=1)
    return out + b[:, None, None]


def reference_forward(model, kspace: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """Cascade output for complex k-space ``kspace`` sampled on the rows
    ``lines`` (noiseless data consistency), as a float64 [2, H, W] array."""
    y = np.where(lines[:, None], kspace, 0)
    z = np.fft.ifft2(y, norm="ortho")
    for stage in model.stages:
        x = np.stack([z.real, z.imag])
        h = x
        for i, layer in enumerate(stage.layers):
            h = conv(h, layer.weights.astype(np.float64), layer.bias.astype(np.float64))
            if i < len(stage.layers) - 1:
                h = np.maximum(h, 0.0)
        r = h + x
        k = np.fft.fft2(r[0] + 1j * r[1], norm="ortho")
        k[lines] = y[lines]
        z = np.fft.ifft2(k, norm="ortho")
    return np.stack([z.real, z.imag])


def mse(out: np.ndarray, truth: np.ndarray) -> float:
    """Per-pixel MSE as the package defines it: summed over both channels,
    averaged over H*W."""
    d = out.astype(np.float64) - truth.astype(np.float64)
    return float(np.sum(d * d)) / (out.shape[-2] * out.shape[-1])


def dc_residual(out: np.ndarray, kspace: np.ndarray, lines: np.ndarray) -> float:
    """Largest deviation of the output's k-space from the measurements on
    the sampled rows."""
    k = np.fft.fft2(as_complex(out), norm="ortho")
    return float(np.max(np.abs(k[lines] - kspace[lines])))


def close(value: float, expected: float, rtol: float = MSE_RTOL) -> bool:
    return bool(np.isfinite(value)) and abs(value - expected) <= rtol * abs(expected)
