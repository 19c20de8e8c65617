"""End-to-end optimisation: MSE loss, Adam with coupled weight decay,
rigid-transform augmentation, and per-sample on-the-fly mask generation.

The loss is normalized per pixel (mean over H*W, summed over the two
channels) so the learning rate transfers across image sizes. Adam runs with
fixed moment rates :data:`ADAM_BETA1` and :data:`ADAM_BETA2` and
denominator floor :data:`ADAM_EPSILON`; only the step size ``alpha`` is set
per run. Weight decay, :data:`WEIGHT_DECAY`, is the classic L2 penalty
folded into the gradient before the moment updates, not the decoupled
variant. Augmentation shifts by at most :data:`MAX_AUGMENT_SHIFT` pixels.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cascade import CascadeModel, cascade_backward, cascade_forward
from .errors import InvalidParameterError, InvalidShapeError, TrainingDivergedError
from .sampling import SamplingMask, apply_encoding, generate_mask
from .tensorcore import ComplexImage, Rng

MAX_AUGMENT_SHIFT = 4
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
WEIGHT_DECAY = 1e-7


def worker_count() -> int:
    """The worker count of training and evaluation: ``CASCADE_RECON_THREADS``,
    a positive integer, 1 when unset. Results do not depend on it."""
    raw = os.environ.get("CASCADE_RECON_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise InvalidParameterError(f"CASCADE_RECON_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def ordered_map(fn, items: list) -> list:
    """``[fn(x) for x in items]`` on ``worker_count()`` threads: item ``i`` runs
    on the calling thread when ``i % workers == 0`` and on a pool of
    ``workers - 1`` threads otherwise. The pool lives for one call, and one
    worker makes none. The first exception in item order propagates once the
    pool has run its items."""
    workers = worker_count()
    if workers == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(workers - 1) as pool:
        futures = {i: pool.submit(fn, x) for i, x in enumerate(items) if i % workers}
        return [futures[i].result() if i % workers else fn(x) for i, x in enumerate(items)]


@dataclass
class TrainConfig:
    """The settings of a training run.

    ``seed`` is not read: training draws from the :class:`Rng` passed to
    :func:`train_epoch`. It stays only because ``perfbench/workloads.py``
    passes ``seed=``; it goes with the benchmark upkeep item of ROADMAP.md.
    """

    alpha: float = 1e-4
    batch_size: int = 10
    acceleration: float = 3.0
    n_low: int = 8
    augment: bool = True
    seed: int = 0

    def __post_init__(self):
        # NaN fails every comparison, so the `not` forms below reject it
        if not 0 < self.alpha < np.inf:
            raise InvalidParameterError(f"alpha must be finite and > 0, got {self.alpha}")
        if self.batch_size < 1:
            raise InvalidParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.acceleration >= 1:
            raise InvalidParameterError(f"acceleration must be >= 1, got {self.acceleration}")
        if self.n_low < 0:
            raise InvalidParameterError(f"n_low must be >= 0, got {self.n_low}")


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0


def init_adam_state(params: list) -> AdamState:
    return AdamState(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(params: list, grads: list, state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update, in place on ``params`` and ``state``."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise InvalidShapeError("params, grads and optimizer state are misaligned")
    state.t += 1
    t = state.t
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise InvalidShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        g = g + WEIGHT_DECAY * p
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        p -= cfg.alpha * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON)


def mse_loss(x_cnn: ComplexImage, x_t: ComplexImage):
    """Per-pixel mean squared error and its gradient wrt the reconstruction."""
    if x_cnn.channels.shape != x_t.channels.shape:
        raise InvalidShapeError(
            f"shape mismatch {x_cnn.channels.shape} vs {x_t.channels.shape}"
        )
    n = x_cnn.height * x_cnn.width
    diff = x_cnn.channels - x_t.channels
    loss = float(np.sum(np.square(diff, dtype=np.float64))) / n
    grad = ComplexImage((2.0 / n) * diff)
    return loss, grad


def apply_rigid(img: ComplexImage, quarter_turns: int, hflip: bool, shift: tuple) -> ComplexImage:
    """Apply one element of the augmentation group, identically to both
    channels: rotation by multiples of 90 degrees, optional horizontal flip,
    and integer circular shifts. All are pixel permutations, so image energy
    is preserved exactly."""
    c = img.channels
    if quarter_turns % 4:
        if img.height != img.width and quarter_turns % 2:
            raise InvalidParameterError("90/270 degree rotations require square images")
        c = np.rot90(c, k=quarter_turns % 4, axes=(1, 2))
    if hflip:
        c = np.flip(c, axis=2)
    si, sj = shift
    if si or sj:
        c = np.roll(c, (int(si), int(sj)), axis=(1, 2))
    return ComplexImage(np.ascontiguousarray(c))


def augment(rng: Rng, img: ComplexImage) -> ComplexImage:
    """Uniformly drawn rigid transform: rotation x flip x circular shift."""
    if img.height == img.width:
        quarter_turns = int(rng.gen.integers(4))
    else:
        quarter_turns = 2 * int(rng.gen.integers(2))
    hflip = bool(rng.gen.integers(2))
    shift = tuple(int(s) for s in rng.gen.integers(-MAX_AUGMENT_SHIFT, MAX_AUGMENT_SHIFT + 1, 2))
    return apply_rigid(img, quarter_turns, hflip, shift)


def _sample_step(model: CascadeModel, x_t: ComplexImage, mask: SamplingMask):
    """One sample's forward and backward pass: ``(loss, parameter gradients)``,
    with no gradients when the loss is not finite.

    Overflow is reported once, as :class:`TrainingDivergedError`, so numpy's
    overflow and invalid-value warnings are silenced here. numpy's error state
    is local to a thread, so it is set inside the task each worker runs.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x_cnn, cache = cascade_forward(model, apply_encoding(x_t, mask))
        loss, grad = mse_loss(x_cnn, x_t)
        if not np.isfinite(loss):
            return loss, None
        return loss, cascade_backward(model, cache, grad)


def train_epoch(
    model: CascadeModel,
    dataset: list,
    cfg: TrainConfig,
    rng: Rng,
    state: AdamState,
    log_fn=None,
    epoch: int = 0,
):
    """One pass over the dataset: per sample, augment the target, draw a
    fresh mask, simulate the acquisition, run forward/backward; per batch,
    average the gradients and take one Adam step.

    The calling thread draws every sample's augmentation and mask in order;
    :func:`ordered_map` then runs the batch's samples, one pool per batch, and
    losses and gradients are summed in sample order. So an epoch is
    bit-for-bit reproducible for a given seed, whatever the worker count.
    Returns ``(model, mean per-sample loss)``. Raises
    :class:`TrainingDivergedError` on the first non-finite loss in sample
    order, once the whole batch has run and before its Adam step.
    """
    if not dataset:
        raise InvalidParameterError("dataset must be nonempty")
    order = rng.gen.permutation(len(dataset))
    params = model.parameters()
    losses = []
    for step, start in enumerate(range(0, len(order), cfg.batch_size)):
        t0 = time.perf_counter()
        samples = []
        for idx in order[start : start + cfg.batch_size]:
            x_t = dataset[int(idx)]
            if cfg.augment:
                x_t = augment(rng, x_t)
            samples.append((x_t, generate_mask(rng, x_t.height, x_t.width, cfg.acceleration, cfg.n_low)))
        grads = model.zero_grads()
        batch_losses = []
        for loss, sample_grads in ordered_map(lambda s: _sample_step(model, *s), samples):
            if sample_grads is None:
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch} step {step}",
                    diagnostics={
                        "epoch": epoch,
                        "step": step,
                        "loss": loss,
                        "param_max": max(float(np.max(np.abs(p))) for p in params),
                    },
                )
            batch_losses.append(loss)
            for acc, g in zip(grads, sample_grads):
                acc += g
        for g in grads:
            g /= len(samples)
        adam_step(params, grads, state, cfg)
        losses.extend(batch_losses)
        if log_fn is not None:
            log_fn(epoch, step, float(np.mean(batch_losses)), (time.perf_counter() - t0) * 1e3)
    return model, float(np.mean(losses))
