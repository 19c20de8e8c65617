"""Finite-difference verification of every backward pass.

All checks run in float64 (central differences are unreliable in float32)
and compare analytic gradients against a numeric oracle that knows nothing
about the backward implementations: it only evaluates the forward maps.

Errors are infinity-norm relative: ||analytic - numeric||_inf over the
larger of the two gradient norms. ``corrupt`` deliberately scales one
analytic gradient so the harness can be shown to catch a broken backward
pass (negative control).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cascade import build_model, cascade_backward, cascade_forward
from .dclayer import DcConfig, dc_backward, dc_forward
from .layers import ConvLayer, conv_backward, conv_forward, he_init, relu_backward, relu_forward
from .sampling import apply_encoding, generate_mask
from .tensorcore import ComplexImage, Rng
from .training import mse_loss

# max relative error allowed per component; the DC layer is linear, so its
# finite-difference check is exact up to roundoff and gets a tighter bound
THRESHOLDS = {
    "conv_input": 1e-5,
    "conv_weight": 1e-5,
    "conv_bias": 1e-5,
    "relu": 1e-5,
    "mse_loss": 1e-5,
    "dclayer": 1e-7,
    "cascade_params": 1e-4,
}


def numeric_gradient(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, elementwise."""
    x = x.astype(np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f(x)
        flat[i] = orig - eps
        f_minus = f(x)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-12) -> float:
    """||analytic - numeric||_inf relative to the larger gradient norm."""
    if analytic.size == 0:
        return 0.0
    num = float(np.max(np.abs(analytic - numeric)))
    den = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))), floor)
    return num / den


@dataclass
class CheckResult:
    component: str
    max_error: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.threshold


def check_conv(seed: int = 0, corrupt: str | None = None) -> list:
    rng = Rng(seed)
    layer = he_init(rng, n_out=2, n_in=1, k=3, dtype=np.float64)
    layer.bias[:] = rng.gen.standard_normal(layer.bias.shape)
    x = rng.gen.standard_normal((1, 6, 6))
    out, cache = conv_forward(layer, x)
    g_up = rng.gen.standard_normal(out.shape)

    grad_in, grad_w, grad_b = conv_backward(layer, cache, g_up)
    if corrupt == "conv_input":
        grad_in = grad_in * 1.001

    def scalar_from_input(xv):
        return float(np.sum(conv_forward(layer, xv)[0] * g_up))

    def scalar_from_weights(wv):
        return float(np.sum(conv_forward(ConvLayer(wv, layer.bias), x)[0] * g_up))

    def scalar_from_bias(bv):
        return float(np.sum(conv_forward(ConvLayer(layer.weights, bv), x)[0] * g_up))

    return [
        CheckResult(
            "conv_input",
            relative_error(grad_in, numeric_gradient(scalar_from_input, x)),
            THRESHOLDS["conv_input"],
        ),
        CheckResult(
            "conv_weight",
            relative_error(grad_w, numeric_gradient(scalar_from_weights, layer.weights)),
            THRESHOLDS["conv_weight"],
        ),
        CheckResult(
            "conv_bias",
            relative_error(grad_b, numeric_gradient(scalar_from_bias, layer.bias)),
            THRESHOLDS["conv_bias"],
        ),
    ]


def check_relu(seed: int = 0, corrupt: str | None = None) -> CheckResult:
    rng = Rng(seed)
    # keep every activation away from the kink so central differences are clean
    x = rng.gen.standard_normal((3, 5, 5))
    x = np.where(np.abs(x) < 0.1, x + np.where(x >= 0, 0.2, -0.2), x)
    out, cache = relu_forward(x)
    g_up = rng.gen.standard_normal(out.shape)
    grad_in = relu_backward(cache, g_up)
    if corrupt == "relu":
        grad_in = grad_in * 1.001

    def scalar(xv):
        return float(np.sum(relu_forward(xv)[0] * g_up))

    return CheckResult(
        "relu", relative_error(grad_in, numeric_gradient(scalar, x)), THRESHOLDS["relu"]
    )


def check_mse(seed: int = 0, corrupt: str | None = None) -> CheckResult:
    rng = Rng(seed)
    x = ComplexImage(rng.gen.standard_normal((2, 6, 6)))
    target = ComplexImage(rng.gen.standard_normal((2, 6, 6)))
    _, grad = mse_loss(x, target)
    analytic = grad.channels
    if corrupt == "mse_loss":
        analytic = analytic * 1.001

    def scalar(ch):
        return mse_loss(ComplexImage(ch), target)[0]

    return CheckResult(
        "mse_loss",
        relative_error(analytic, numeric_gradient(scalar, x.channels)),
        THRESHOLDS["mse_loss"],
    )


def check_dclayer(seed: int = 0, lam: float = 2.0, corrupt: str | None = None) -> CheckResult:
    rng = Rng(seed)
    truth = ComplexImage(rng.gen.standard_normal((2, 8, 8)))
    mask = generate_mask(rng.child(1), 8, 8, acceleration=2.0, n_low=2)
    measured = apply_encoding(truth, mask)
    x = ComplexImage(rng.gen.standard_normal((2, 8, 8)))
    g_up = ComplexImage(rng.gen.standard_normal((2, 8, 8)))

    worst = 0.0
    for mode_lam in (lam, math.inf):
        cfg = DcConfig(measured=measured, lam=mode_lam)
        analytic = dc_backward(g_up, cfg).channels
        if corrupt == "dclayer":
            analytic = analytic * 1.001

        def scalar(ch, _cfg=cfg):
            return float(np.sum(dc_forward(ComplexImage(ch), _cfg).channels * g_up.channels))

        worst = max(worst, relative_error(analytic, numeric_gradient(scalar, x.channels)))
    return CheckResult("dclayer", worst, THRESHOLDS["dclayer"])


def check_cascade(
    seed: int = 0,
    size: int = 16,
    n_c: int = 2,
    n_d: int = 3,
    n_f: int = 4,
    n_samples: int = 50,
    corrupt: str | None = None,
) -> CheckResult:
    rng = Rng(seed)
    model = build_model(rng, n_c=n_c, n_d=n_d, n_f=n_f, dtype=np.float64)
    truth = ComplexImage(rng.gen.standard_normal((2, size, size)))
    mask = generate_mask(rng.child(1), size, size, acceleration=3.0, n_low=4)
    meas = apply_encoding(truth, mask)

    params = model.parameters()
    x_cnn, cache = cascade_forward(model, meas)
    _, loss_grad = mse_loss(x_cnn, truth)
    grads = cascade_backward(model, cache, loss_grad)
    if corrupt == "cascade_params":
        grads = [g * 1.001 for g in grads]

    def full_loss():
        out, _ = cascade_forward(model, meas)
        return mse_loss(out, truth)[0]

    # compare a random subsample of parameter coordinates, spread over stages
    total = sum(p.size for p in params)
    picks = rng.gen.choice(total, size=min(n_samples, total), replace=False)
    offsets = np.cumsum([0] + [p.size for p in params])
    eps = 1e-5
    analytic = np.zeros(len(picks))
    numeric = np.zeros(len(picks))
    for j, pick in enumerate(picks):
        pi = int(np.searchsorted(offsets, pick, side="right")) - 1
        flat_idx = int(pick - offsets[pi])
        p = params[pi].reshape(-1)
        orig = p[flat_idx]
        p[flat_idx] = orig + eps
        f_plus = full_loss()
        p[flat_idx] = orig - eps
        f_minus = full_loss()
        p[flat_idx] = orig
        numeric[j] = (f_plus - f_minus) / (2 * eps)
        analytic[j] = grads[pi].reshape(-1)[flat_idx]
    return CheckResult(
        "cascade_params", relative_error(analytic, numeric), THRESHOLDS["cascade_params"]
    )


def run_gradcheck(
    seed: int = 0,
    size: int = 16,
    n_c: int = 2,
    n_d: int = 3,
    n_f: int = 4,
    corrupt: str | None = None,
) -> list:
    """Run every finite-difference suite; returns one result per component."""
    results = list(check_conv(seed, corrupt))
    results.append(check_relu(seed, corrupt))
    results.append(check_mse(seed, corrupt))
    results.append(check_dclayer(seed, corrupt=corrupt))
    results.append(check_cascade(seed, size=size, n_c=n_c, n_d=n_d, n_f=n_f, corrupt=corrupt))
    return results
