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

import multiprocessing
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cascade import CascadeModel, cascade_backward, cascade_forward
from .errors import InvalidParameterError, InvalidShapeError, InvalidStateError, TrainingDivergedError
from .sampling import SamplingMask, apply_encoding, generate_mask
from .tensorcore import ComplexImage, Rng, complex_norm_sq

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


def _run_share(fn, items: list, j: int, w: int, first: list):
    """``fn`` over items ``j, j + w, ...`` in order: ``(their results, the
    exception that stopped them or None)``. The share stops at its own first
    failure and skips every item after ``first[0]``, the lowest index known
    to have failed, which the shares of one call hold in common. Any
    exception records its index there; one that is not an :class:`Exception`,
    such as an interrupt, is then raised."""
    results = []
    for i in range(j, len(items), w):
        if i > first[0]:
            break
        try:
            results.append(fn(items[i]))
        except BaseException as exc:
            first[0] = min(first[0], i)
            if not isinstance(exc, Exception):
                raise
            return results, exc
    return results, None


def _in_item_order(n: int, w: int, share) -> list:
    """The results of items ``0 .. n - 1`` in item order, where ``share(j)``
    gives worker ``j``'s :func:`_run_share` pair and is called once item
    order first reaches that worker. The first failure in item order is
    raised, without asking any later worker."""
    shares, results = {}, []
    for i in range(n):
        j, k = i % w, i // w
        if j not in shares:
            shares[j] = share(j)
        done, error = shares[j]
        if k == len(done):
            raise error
        results.append(done[k])
    return results


def ordered_map(fn, items: list) -> list:
    """``[fn(x) for x in items]`` by the fan-out rule of ``train`` and
    ``evaluate``: with ``W = min(worker_count(), len(items))``, item ``i``
    runs on worker ``i % W``, the caller being worker 0, each worker runs its
    items in order, and the first exception in item order propagates, once
    every item before it has run; no worker starts an item after one known to
    have failed. Here workers 1 .. W - 1 are threads of a pool that lives for
    one call, and are gone when it returns."""
    w = min(worker_count(), len(items) or 1)
    first = [len(items)]
    # a pool of W, as one of 0 threads is refused: it starts a thread only per
    # share submitted, so W - 1 in all
    with ThreadPoolExecutor(w) as pool:
        futures = [pool.submit(_run_share, fn, items, j, w, first) for j in range(1, w)]
        own = _run_share(fn, items, 0, w, first)
        return _in_item_order(len(items), w, lambda j: futures[j - 1].result() if j else own)


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
    loss = complex_norm_sq(ComplexImage(diff)) / n
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
    """One sample's forward and backward pass: ``(loss, parameter gradients)``.

    Overflow is reported once, as :class:`TrainingDivergedError`, so numpy's
    overflow and invalid-value warnings are silenced here. numpy's error state
    is local to a thread, so it is set inside the step, wherever it runs.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x_cnn, cache = cascade_forward(model, apply_encoding(x_t, mask))
        loss, grad = mse_loss(x_cnn, x_t)
        return loss, cascade_backward(model, cache, grad)


def _serve(conn, model: CascadeModel, inherited: list) -> None:
    """A worker process's loop: per batch, take the parameters and a share of
    the samples from ``conn``, run the share and send back :func:`_run_share`'s
    pair. Returns once the caller has closed its end of the pipe."""
    # the caller's ends of every pipe forked so far, this one's included: a
    # copy held open here would keep a worker from ever seeing its pipe close
    for c in inherited:
        c.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's to handle
    params = model.parameters()
    try:
        while True:
            new_params, samples = conn.recv()
            for p, new in zip(params, new_params):
                p[...] = new
            conn.send(_run_share(lambda s: _sample_step(model, *s), samples, 0, 1, [len(samples)]))
    except (EOFError, BrokenPipeError):
        pass


class _Workers:
    """``count - 1`` forked processes that run a batch's samples beside the
    calling process, worker 0, by the rule of :func:`ordered_map`. Used as a
    context manager, for one epoch: on exit every pipe is closed and every
    worker joined, and on an exception the workers are first terminated, as
    their results are no longer wanted."""

    def __init__(self, model: CascadeModel, count: int):
        self.model = model
        self.conns, self.procs = [], []
        ctx = multiprocessing.get_context("fork")
        try:
            for _ in range(count - 1):
                here, there = ctx.Pipe()
                self.conns.append(here)
                proc = ctx.Process(target=_serve, args=(there, model, self.conns), daemon=True)
                proc.start()
                self.procs.append(proc)
                there.close()
        except BaseException:
            self.__exit__(BaseException)
            raise

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_) -> None:
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            if exc_type is not None:
                proc.terminate()
            proc.join()
            proc.close()

    def _pipe(self, j: int, *message):
        """``send(message)`` on the pipe to worker ``j``, or ``recv()`` when no
        message is given; a pipe that closes because the worker died raises
        InvalidStateError."""
        conn = self.conns[j - 1]
        try:
            return conn.send(*message) if message else conn.recv()
        except (EOFError, BrokenPipeError) as exc:
            proc = self.procs[j - 1]
            proc.join()
            raise InvalidStateError(
                f"training worker {j} of {len(self.procs) + 1} exited mid-batch with code {proc.exitcode}"
            ) from exc

    def run(self, samples: list) -> list:
        """Each sample's ``(loss, grads)``, in sample order, by the rule of
        :func:`ordered_map` with ``W = min(count, len(samples))``. Every
        worker gets the current parameters and its share; the caller then
        runs its own, and takes a worker's results only when sample order
        reaches them, so an earlier sample's error is raised without waiting
        on later workers, and a worker that died after it does not mask it."""
        w = min(len(self.procs) + 1, len(samples))
        params = self.model.parameters()
        for j in range(1, w):
            self._pipe(j, (params, samples[j::w]))
        own = _run_share(lambda s: _sample_step(self.model, *s), samples, 0, w, [len(samples)])
        return _in_item_order(len(samples), w, lambda j: self._pipe(j) if j else own)


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

    The calling process draws every sample's augmentation and mask in order.
    With ``W = min(worker_count(), batch size, dataset size)``, it forks
    ``W - 1`` worker processes once per epoch (POSIX ``fork``). Per batch it
    runs the samples on them and itself by the rule of :func:`ordered_map`,
    sending each worker the current parameters with its share, and sums
    losses and gradients in sample order. So an epoch is bit-for-bit
    reproducible for a given seed, whatever the worker count. Processes, not
    threads: a desk-scale sample makes many short numpy calls, which threads
    run one at a time.

    Returns ``(model, mean per-sample loss)``. A sample's exception is raised
    as it is, the first in sample order; a worker stops at its own first, and
    a worker that dies raises :class:`InvalidStateError`. Raises
    :class:`TrainingDivergedError` on the first non-finite loss in sample
    order, once the whole batch has run and before its gradients are summed,
    and on a parameter that the Adam step leaves non-finite. No worker
    outlives the call.
    """
    if not dataset:
        raise InvalidParameterError("dataset must be nonempty")
    workers = min(worker_count(), cfg.batch_size, len(dataset))
    order = rng.gen.permutation(len(dataset))
    params = model.parameters()
    losses = []

    def diverged(what: str, step: int, loss: float) -> TrainingDivergedError:
        return TrainingDivergedError(
            f"non-finite {what} at epoch {epoch} step {step}",
            diagnostics={
                "epoch": epoch,
                "step": step,
                "loss": loss,
                "param_max": max(float(np.max(np.abs(p))) for p in params),
            },
        )

    with _Workers(model, workers) as pool:
        for step, start in enumerate(range(0, len(order), cfg.batch_size)):
            t0 = time.perf_counter()
            samples = []
            for idx in order[start : start + cfg.batch_size]:
                x_t = dataset[int(idx)]
                if cfg.augment:
                    x_t = augment(rng, x_t)
                samples.append((x_t, generate_mask(rng, x_t.height, x_t.width, cfg.acceleration, cfg.n_low)))
            results = pool.run(samples)
            batch_losses = [loss for loss, _ in results]
            for loss in batch_losses:
                if not np.isfinite(loss):
                    raise diverged("loss", step, loss)
            # the sum runs in the parameters' precision, in place on the first
            # sample's gradients (a copy only when an image's precision differs);
            # finite but huge gradients can overflow it or Adam's squared moment,
            # which is reported once, by the finiteness check after the step
            with np.errstate(over="ignore", invalid="ignore"):
                grads = [g.astype(p.dtype, copy=False) for p, g in zip(params, results[0][1])]
                for _, sample_grads in results[1:]:
                    for acc, g in zip(grads, sample_grads):
                        acc += g
                for g in grads:
                    g /= len(samples)
                adam_step(params, grads, state, cfg)
            if not all(np.isfinite(p).all() for p in params):
                raise diverged("parameter after the Adam step", step, float(np.mean(batch_losses)))
            losses.extend(batch_losses)
            if log_fn is not None:
                log_fn(epoch, step, float(np.mean(batch_losses)), (time.perf_counter() - t0) * 1e3)
    return model, float(np.mean(losses))
