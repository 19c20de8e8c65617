"""Finite-difference verification of every backward pass.

All checks run in float64 (central differences are unreliable in float32)
and compare analytic gradients against a numeric oracle that knows nothing
about the backward implementations: it only evaluates the forward maps.

Errors are infinity-norm relative: ||analytic - numeric||_inf over the
larger of the two gradient norms. ``corrupt`` names one of the seven
components in :data:`THRESHOLDS` and scales its analytic gradient by 1.001,
so the harness can be shown to catch a broken backward pass (negative
control); any other value is an input error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cascade import build_model, cascade_backward, cascade_forward
from .dclayer import DcConfig, dc_backward, dc_forward
from .errors import InvalidParameterError
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


def numeric_gradient(f, x: np.ndarray) -> np.ndarray:
    """Central finite differences of a scalar function, elementwise."""
    eps = 1e-5
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


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """||analytic - numeric||_inf relative to the larger gradient norm."""
    if analytic.size == 0:
        return 0.0
    num = float(np.max(np.abs(analytic - numeric)))
    den = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))), 1e-12)
    return num / den


@dataclass
class CheckResult:
    component: str
    max_error: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_error < self.threshold


def _result(component: str, analytic: np.ndarray, numeric: np.ndarray, corrupt: str | None) -> CheckResult:
    if corrupt == component:
        analytic = analytic * 1.001
    return CheckResult(component, relative_error(analytic, numeric), THRESHOLDS[component])


def check_conv(seed: int = 0, corrupt: str | None = None) -> list:
    rng = Rng(seed)
    layer = he_init(rng, n_out=2, n_in=1, k=3, dtype=np.float64)
    layer.bias[:] = rng.gen.standard_normal(layer.bias.shape)
    x = rng.gen.standard_normal((1, 6, 6))
    out, cache = conv_forward(layer, x)
    g_up = rng.gen.standard_normal(out.shape)
    grad_in, grad_w, grad_b = conv_backward(layer, cache, g_up)
    w, b = layer.weights, layer.bias

    def scalar(xv, wv, bv):
        return float(np.sum(conv_forward(ConvLayer(wv, bv), xv)[0] * g_up))

    return [
        _result("conv_input", grad_in, numeric_gradient(lambda v: scalar(v, w, b), x), corrupt),
        _result("conv_weight", grad_w, numeric_gradient(lambda v: scalar(x, v, b), w), corrupt),
        _result("conv_bias", grad_b, numeric_gradient(lambda v: scalar(x, w, v), b), corrupt),
    ]


def check_relu(seed: int = 0, corrupt: str | None = None) -> CheckResult:
    rng = Rng(seed)
    # keep every activation away from the kink so central differences are clean
    x = rng.gen.standard_normal((3, 5, 5))
    x = np.where(np.abs(x) < 0.1, x + np.where(x >= 0, 0.2, -0.2), x)
    out, cache = relu_forward(x)
    g_up = rng.gen.standard_normal(out.shape)

    def scalar(xv):
        return float(np.sum(relu_forward(xv)[0] * g_up))

    return _result("relu", relu_backward(cache, g_up), numeric_gradient(scalar, x), corrupt)


def check_mse(seed: int = 0, corrupt: str | None = None) -> CheckResult:
    rng = Rng(seed)
    x = ComplexImage(rng.gen.standard_normal((2, 6, 6)))
    target = ComplexImage(rng.gen.standard_normal((2, 6, 6)))
    _, grad = mse_loss(x, target)

    def scalar(ch):
        return mse_loss(ComplexImage(ch), target)[0]

    return _result("mse_loss", grad.channels, numeric_gradient(scalar, x.channels), corrupt)


def check_dclayer(seed: int = 0, corrupt: str | None = None) -> CheckResult:
    """The worse of the two modes: weighted (lambda 2) and noiseless (inf)."""
    rng = Rng(seed)
    truth = ComplexImage(rng.gen.standard_normal((2, 8, 8)))
    mask = generate_mask(rng.child(1), 8, 8, acceleration=2.0, n_low=2)
    measured = apply_encoding(truth, mask)
    x = ComplexImage(rng.gen.standard_normal((2, 8, 8)))
    g_up = ComplexImage(rng.gen.standard_normal((2, 8, 8)))

    results = []
    for mode_lam in (2.0, math.inf):
        cfg = DcConfig(measured=measured, lam=mode_lam)
        analytic = dc_backward(g_up, cfg).channels

        def scalar(ch, _cfg=cfg):
            return float(np.sum(dc_forward(ComplexImage(ch), _cfg).channels * g_up.channels))

        results.append(_result("dclayer", analytic, numeric_gradient(scalar, x.channels), corrupt))
    return max(results, key=lambda r: r.max_error)


def check_cascade(seed: int = 0, size: int = 16, n_c: int = 2, n_d: int = 3, n_f: int = 4,
                  corrupt: str | None = None) -> CheckResult:
    rng = Rng(seed)
    model = build_model(rng, n_c=n_c, n_d=n_d, n_f=n_f, dtype=np.float64)
    truth = ComplexImage(rng.gen.standard_normal((2, size, size)))
    mask = generate_mask(rng.child(1), size, size, acceleration=3.0, n_low=4)
    meas = apply_encoding(truth, mask)

    params = model.parameters()
    x_cnn, cache = cascade_forward(model, meas)
    _, loss_grad = mse_loss(x_cnn, truth)
    grads = cascade_backward(model, cache, loss_grad)

    # compare a random subsample of parameter coordinates, spread over stages
    theta = np.concatenate([p.reshape(-1) for p in params])
    bounds = np.cumsum([p.size for p in params])[:-1]
    picks = rng.gen.choice(theta.size, size=min(50, theta.size), replace=False)
    start = theta[picks]

    def loss_at(values):
        theta[picks] = values
        for p, part in zip(params, np.split(theta, bounds)):
            p[...] = part.reshape(p.shape)
        out, _ = cascade_forward(model, meas)
        return mse_loss(out, truth)[0]

    numeric = numeric_gradient(loss_at, start)
    loss_at(start)  # put the parameters back
    analytic = np.concatenate([g.reshape(-1) for g in grads])[picks]
    return _result("cascade_params", analytic, numeric, corrupt)


def run_gradcheck(seed: int = 0, size: int = 16, n_c: int = 2, n_d: int = 3, n_f: int = 4,
                  corrupt: str | None = None) -> list:
    """Run every finite-difference suite; returns one result per component,
    in :data:`THRESHOLDS` order."""
    if corrupt is not None and corrupt not in THRESHOLDS:
        raise InvalidParameterError(f"corrupt must be one of {', '.join(THRESHOLDS)}; got {corrupt!r}")
    results = list(check_conv(seed, corrupt))
    results.append(check_relu(seed, corrupt))
    results.append(check_mse(seed, corrupt))
    results.append(check_dclayer(seed, corrupt=corrupt))
    results.append(check_cascade(seed, size=size, n_c=n_c, n_d=n_d, n_f=n_f, corrupt=corrupt))
    return results
