import contextlib
import hashlib
import math
import multiprocessing
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from mricascade import (
    AdamState,
    ComplexImage,
    InvalidParameterError,
    InvalidShapeError,
    InvalidStateError,
    Rng,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    augment,
    build_model,
    cascade_forward,
    complex_norm_sq,
    init_adam_state,
    mse_loss,
    train_epoch,
)
from mricascade import training
from mricascade.gradcheck import check_mse
from mricascade.phantom import make_dataset
from mricascade.training import apply_rigid


def small_setup(n_images=4, master=0, **cfg_kw):
    images = make_dataset(n_images, 32, 32, seed=17)
    model = build_model(Rng(master).child(0), n_c=2, n_d=2, n_f=4)
    defaults = dict(batch_size=2, acceleration=3.0, n_low=4, augment=True, seed=master)
    defaults.update(cfg_kw)
    cfg = TrainConfig(**defaults)
    state = init_adam_state(model.parameters())
    return model, images, cfg, state, Rng(master).child(1)


class TestMseLoss:
    def test_identical_images_zero_loss(self):
        x = ComplexImage(Rng(0).gen.standard_normal((2, 6, 6)))
        loss, grad = mse_loss(x, x)
        assert loss == 0.0
        assert np.all(grad.channels == 0.0)

    def test_single_pixel_difference(self):
        # one pixel off by (1, 0) on a 2x2-pixel... smallest legal image is 4x4:
        # loss = 1 / (H*W), grad = 2/(H*W) at that pixel
        x_t = ComplexImage.zeros(4, 4, dtype=np.float64)
        x = ComplexImage.zeros(4, 4, dtype=np.float64)
        x.channels[0, 1, 1] = 1.0
        loss, grad = mse_loss(x, x_t)
        assert loss == pytest.approx(1.0 / 16.0)
        assert grad.channels[0, 1, 1] == pytest.approx(2.0 / 16.0)
        assert grad.channels[1, 1, 1] == 0.0

    def test_gradient_finite_differences(self):
        assert check_mse(seed=0).max_error < 1e-9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidShapeError):
            mse_loss(ComplexImage.zeros(4, 4), ComplexImage.zeros(4, 6))


class TestAdamStep:
    def cfg(self):
        return TrainConfig(alpha=1e-4)

    def test_first_step_magnitude(self):
        # theta=0, g=1, t=1: m_hat = 1, v_hat = 1, step = -alpha / (1 + eps)
        p = np.zeros(1, dtype=np.float64)
        state = init_adam_state([p])
        adam_step([p], [np.ones(1)], state, self.cfg())
        assert p[0] == pytest.approx(-1e-4, rel=1e-6)
        assert state.t == 1

    def test_zero_gradient_leaves_parameters(self):
        # with no accumulated momentum, a zero gradient moves nothing and the
        # second moment decays toward zero
        p = np.zeros(3, dtype=np.float64)
        state = AdamState(m=[np.zeros(3)], v=[np.full(3, 0.25)], t=3)
        for _ in range(5):
            adam_step([p], [np.zeros(3)], state, self.cfg())
        assert np.all(p == 0.0)
        assert np.all(state.m[0] == 0.0)
        assert np.all(state.v[0] < 0.25)

    def test_deterministic_trajectories(self):
        def run():
            rng = Rng(4)
            p = rng.gen.standard_normal(8)
            state = init_adam_state([p])
            for _ in range(20):
                g = rng.gen.standard_normal(8)
                adam_step([p], [g], state, self.cfg())
            return p

        assert np.array_equal(run(), run())

    def test_matches_textbook_adam(self):
        # L2 decay 1e-7 folded into g before the moments, beta1 0.9,
        # beta2 0.999, eps 1e-8, in the operation order of adam_step
        rng = Rng(11)
        p = rng.gen.standard_normal(6)
        g = rng.gen.standard_normal(6)
        ref, m, v = p.copy(), np.zeros(6), np.zeros(6)
        state = init_adam_state([p])
        cfg = TrainConfig(alpha=1e-3)
        for t in range(1, 6):
            adam_step([p], [g], state, cfg)
            gt = g + 1e-7 * ref
            m = 0.9 * m + (1.0 - 0.9) * gt
            v = 0.999 * v + (1.0 - 0.999) * np.square(gt)
            ref = ref - 1e-3 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
            assert np.array_equal(p, ref), t

    def test_weight_decay_pulls_magnitude_down(self):
        # zero data gradient: the decay term alone shrinks parameters, by
        # about alpha per step whatever its size, since Adam normalises it
        p = np.array([1.0, -0.8])
        state = init_adam_state([p])
        mags = [np.abs(p).copy()]
        for _ in range(10):
            adam_step([p], [np.zeros(2)], state, self.cfg())
            mags.append(np.abs(p).copy())
        for before, after in zip(mags, mags[1:]):
            assert np.all(after < before)

    def test_misaligned_shapes_rejected(self):
        p = np.zeros(3)
        state = init_adam_state([p])
        with pytest.raises(InvalidShapeError):
            adam_step([p], [np.zeros(4)], state, self.cfg())

    @pytest.mark.parametrize("n_grads, n_state", [(1, 2), (2, 1)], ids=["grads", "state"])
    def test_lists_of_different_lengths_rejected(self, n_grads, n_state):
        params = [np.zeros(3), np.zeros(3)]
        state = init_adam_state(params[:n_state])
        with pytest.raises(InvalidShapeError, match="misaligned"):
            adam_step(params, [np.zeros(3)] * n_grads, state, self.cfg())

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            TrainConfig(alpha=0.0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"alpha": float("nan")},
            {"alpha": float("inf")},
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_non_finite_or_zero_optimiser_values_rejected(self, bad):
        name = next(iter(bad))
        with pytest.raises(InvalidParameterError, match=name):
            TrainConfig(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {"batch_size": 0},
            {"batch_size": -1},
            {"acceleration": 0.5},
            {"acceleration": float("nan")},
            {"n_low": -1},
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_invalid_run_settings_rejected(self, bad):
        name = next(iter(bad))
        with pytest.raises(InvalidParameterError, match=name):
            TrainConfig(**bad)

    def test_smallest_valid_run_settings_accepted(self):
        cfg = TrainConfig(batch_size=1, acceleration=1.0, n_low=0)
        assert (cfg.batch_size, cfg.acceleration, cfg.n_low) == (1, 1.0, 0)


class TestAugment:
    def test_identity_element(self):
        img = ComplexImage(Rng(0).gen.standard_normal((2, 8, 8)))
        out = apply_rigid(img, quarter_turns=0, hflip=False, shift=(0, 0))
        assert np.array_equal(out.channels, img.channels)

    def test_half_turn_is_involution(self):
        img = ComplexImage(Rng(1).gen.standard_normal((2, 8, 8)))
        once = apply_rigid(img, 2, False, (0, 0))
        twice = apply_rigid(once, 2, False, (0, 0))
        assert np.array_equal(twice.channels, img.channels)

    def test_every_group_element_preserves_energy(self):
        img = ComplexImage(Rng(2).gen.standard_normal((2, 8, 8)))
        base = complex_norm_sq(img)
        for rot in range(4):
            for flip in (False, True):
                for shift in [(0, 0), (3, -2), (-4, 4)]:
                    out = apply_rigid(img, rot, flip, shift)
                    assert complex_norm_sq(out) == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("quarter_turns", [1, 3])
    def test_odd_quarter_turn_of_non_square_rejected(self, quarter_turns):
        img = ComplexImage(Rng(2).gen.standard_normal((2, 8, 12)))
        with pytest.raises(InvalidParameterError, match="require square images"):
            apply_rigid(img, quarter_turns, False, (0, 0))

    def test_non_square_draws_only_half_turns(self, monkeypatch):
        turns = []

        def spy(img, quarter_turns, hflip, shift):
            turns.append(quarter_turns)
            return apply_rigid(img, quarter_turns, hflip, shift)

        monkeypatch.setattr(training, "apply_rigid", spy)
        img = ComplexImage(Rng(3).gen.standard_normal((2, 8, 12)))
        rng = Rng(9)
        assert all(augment(rng, img).channels.shape == (2, 8, 12) for _ in range(40))
        assert set(turns) == {0, 2}

    def test_draws_are_deterministic(self):
        img = ComplexImage(Rng(3).gen.standard_normal((2, 8, 8)))
        a = augment(Rng(9), img)
        b = augment(Rng(9), img)
        assert np.array_equal(a.channels, b.channels)

    def test_channels_move_together(self):
        img = ComplexImage(Rng(4).gen.standard_normal((2, 8, 8)))
        out = augment(Rng(5), img)
        # the transform is a permutation applied identically to both channels:
        # pixel pairs (re, im) are preserved as pairs
        pairs_in = {tuple(p) for p in img.channels.reshape(2, -1).T.tolist()}
        pairs_out = {tuple(p) for p in out.channels.reshape(2, -1).T.tolist()}
        assert pairs_in == pairs_out


class TestTrainEpoch:
    def test_zero_learning_rate_changes_nothing(self):
        model, images, cfg, state, rng = small_setup(alpha=1e-30)
        before = [p.copy() for p in model.parameters()]
        _, loss = train_epoch(model, images, cfg, rng, state)
        for b, p in zip(before, model.parameters()):
            assert np.allclose(b, p, atol=1e-25)
        assert loss > 0

    def test_single_batch_descent_at_small_alpha(self):
        # one Adam step on a fixed batch strictly decreases that batch's loss
        model, images, cfg, state, rng = small_setup(
            n_images=2, alpha=1e-6, batch_size=2, augment=False
        )
        _, loss1 = train_epoch(model, images, cfg, Rng(0).child(1), state)
        # replay the same masks by reusing an identically-seeded rng
        _, loss2 = train_epoch(model, images, cfg, Rng(0).child(1), state)
        assert loss2 < loss1

    def test_mean_loss_is_finite_and_logged(self):
        model, images, cfg, state, rng = small_setup()
        records = []
        _, loss = train_epoch(
            model, images, cfg, rng, state, log_fn=lambda *r: records.append(r), epoch=3
        )
        assert np.isfinite(loss)
        assert len(records) == 2  # 4 images / batch_size 2
        assert all(r[0] == 3 for r in records)

    def test_fresh_masks_each_sample(self):
        from mricascade import generate_mask

        # two samples drawn in one epoch see different masks (fixed seed)
        rng = Rng(123)
        m1 = generate_mask(rng, 32, 32, 3.0, 4)
        m2 = generate_mask(rng, 32, 32, 3.0, 4)
        assert not np.array_equal(m1.phase_lines, m2.phase_lines)

    def test_divergence_raises_with_diagnostics(self):
        model, images, cfg, state, rng = small_setup(alpha=1e30)
        with pytest.raises(TrainingDivergedError) as exc_info:
            for epoch in range(50):
                train_epoch(model, images, cfg, rng, state, epoch=epoch)
        assert "loss" in exc_info.value.diagnostics

    def test_empty_dataset_rejected(self):
        model, _, cfg, state, rng = small_setup()
        with pytest.raises(InvalidParameterError):
            train_epoch(model, [], cfg, rng, state)


class TestOrderedMap:
    @pytest.mark.parametrize("workers,on_caller", [("1", 5), ("2", 3), ("3", 2)])
    def test_input_order_and_caller_share(self, monkeypatch, workers, on_caller):
        # the caller runs items 0, 2, 4 with 2 workers and 0, 3 with 3
        threads = []

        def square(x):
            threads.append(threading.current_thread())
            return x * x

        monkeypatch.setenv("CASCADE_RECON_THREADS", workers)
        before = threading.active_count()
        assert training.ordered_map(square, [0, 1, 2, 3, 4]) == [0, 1, 4, 9, 16]
        assert threading.active_count() == before
        assert sum(t is threading.main_thread() for t in threads) == on_caller

    @pytest.mark.parametrize("workers", ["2", "3"])
    @pytest.mark.parametrize("bad", [1, 2], ids=["item1", "item2"])
    def test_exception_propagates_and_leaves_no_thread(self, monkeypatch, bad, workers):
        # item 1 runs on the pool; item 2 on the caller with 2 workers and on
        # the pool with 3. An item after the failing one waits until it has
        # failed, so each pool thread starts at most one such item; once the
        # failure is known, no later item starts
        ran, failed = [], threading.Event()

        def fail_on_bad(x):
            ran.append(x)
            if x == bad:
                failed.set()
                raise ValueError(f"item {x}")
            if x > bad:
                failed.wait(timeout=10)
                time.sleep(0.05)  # lets the failing item's task record its failure
            return x

        monkeypatch.setenv("CASCADE_RECON_THREADS", workers)
        before = threading.active_count()
        with pytest.raises(ValueError, match=f"item {bad}"):
            training.ordered_map(fail_on_bad, list(range(20)))
        assert threading.active_count() == before
        assert set(range(bad + 1)) <= set(ran)
        assert len([x for x in ran if x > bad]) <= int(workers) - 1, sorted(ran)

    def test_each_worker_runs_a_fixed_share(self, monkeypatch):
        # item 1 is slow: a pool that handed the next item to whichever
        # thread came free first would give most of 2, 4, 5, 7, 8 to one
        # thread; each worker runs every third item instead
        threads = {}

        def slow_item1(x):
            threads[x] = threading.current_thread()
            if x == 1:
                time.sleep(0.2)
            return x

        monkeypatch.setenv("CASCADE_RECON_THREADS", "3")
        assert training.ordered_map(slow_item1, list(range(9))) == list(range(9))
        shares = {t: sorted(x for x in threads if threads[x] is t) for t in threads.values()}
        assert shares.pop(threading.main_thread()) == [0, 3, 6]
        assert sorted(shares.values()) == [[1, 4, 7], [2, 5, 8]]

    def test_more_threads_than_cores_keep_item_order(self, monkeypatch):
        # 6 threads, switching often: the results keep item order, and of two
        # failing items the first in item order is raised, whichever failed first
        monkeypatch.setenv("CASCADE_RECON_THREADS", "6")
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            before = threading.active_count()
            assert training.ordered_map(lambda x: x * x, list(range(300))) == [x * x for x in range(300)]
            for bad in ({37, 5}, {150, 151}, {0, 299}):

                def fail_on_bad(x):
                    if x in bad:
                        raise ValueError(f"item {x}")
                    return x

                with pytest.raises(ValueError, match=f"^item {min(bad)}$"):
                    training.ordered_map(fail_on_bad, list(range(300)))
            assert threading.active_count() == before
        finally:
            sys.setswitchinterval(switch)


def train_two_epochs(monkeypatch, workers, n_images, batch_size):
    monkeypatch.setenv("CASCADE_RECON_THREADS", workers)
    model, images, cfg, state, rng = small_setup(n_images=n_images, batch_size=batch_size)
    losses = [train_epoch(model, images, cfg, rng, state, epoch=e)[1] for e in range(2)]
    return losses, model.parameters(), state


class TestThreadedTrainEpoch:
    @pytest.mark.parametrize("workers", ["2", "3"])
    @pytest.mark.parametrize(
        "n_images,batch_size", [(5, 1), (8, 4), (13, 4)], ids=["batch1", "batch4", "ragged13by4"]
    )
    def test_bit_identical_to_one_worker(self, monkeypatch, workers, n_images, batch_size):
        losses, params, state = train_two_epochs(monkeypatch, workers, n_images, batch_size)
        ref_losses, ref_params, ref_state = train_two_epochs(monkeypatch, "1", n_images, batch_size)
        assert losses == ref_losses
        assert state.t == ref_state.t == 2 * -(-n_images // batch_size)
        for got, ref in zip(
            [*params, *state.m, *state.v], [*ref_params, *ref_state.m, *ref_state.v], strict=True
        ):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    @pytest.mark.parametrize("workers,on_caller", [("1", 4), ("2", 2), ("3", 2)])
    def test_caller_runs_every_workers_th_sample(self, monkeypatch, tmp_path, workers, on_caller):
        # a batch of 4: the caller runs samples 0, 2 with 2 workers and 0, 3
        # with 3; forked workers run the rest and are gone when the epoch
        # returns. A worker's memory is its own, so the spy appends the pid
        # of the process that ran each sample to a file
        log = tmp_path / "pids"

        def spy(model, meas):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            return cascade_forward(model, meas)

        monkeypatch.setattr(training, "cascade_forward", spy)
        monkeypatch.setenv("CASCADE_RECON_THREADS", workers)
        model, images, cfg, state, rng = small_setup(n_images=4, batch_size=4)
        before = threading.active_count()
        train_epoch(model, images, cfg, rng, state)
        assert threading.active_count() == before
        assert multiprocessing.active_children() == []
        pids = [int(line) for line in log.read_text().split()]
        assert len(pids) == 4
        assert pids.count(os.getpid()) == on_caller
        assert min(int(workers), 2) <= len(set(pids)) <= int(workers)

    def test_divergence_reports_first_sample_in_batch_order(self, monkeypatch):
        # samples 1 (on a worker) and 2 (on the caller) of the second batch
        # diverge: the error names sample 1's loss, and that batch takes no
        # Adam step. A sample sent to a worker is a copy, so the spy knows
        # an image by its bytes
        n_images, batch = 8, 4
        order = Rng(0).child(1).gen.permutation(n_images)

        def run(workers):
            monkeypatch.setenv("CASCADE_RECON_THREADS", workers)
            model, images, cfg, state, rng = small_setup(n_images=n_images, batch_size=batch, augment=False)
            bad = {images[order[batch + 1]].channels.tobytes(): math.inf,
                   images[order[batch + 2]].channels.tobytes(): -math.inf}

            def spy(x_cnn, x_t):
                loss, grad = mse_loss(x_cnn, x_t)
                return bad.get(x_t.channels.tobytes(), loss), grad

            monkeypatch.setattr(training, "mse_loss", spy)
            stepped = []
            with pytest.raises(TrainingDivergedError) as exc_info:
                train_epoch(
                    model, images, cfg, rng, state, epoch=5,
                    log_fn=lambda *_: stepped.append([p.copy() for p in model.parameters()]),
                )
            assert multiprocessing.active_children() == []
            assert state.t == len(stepped) == 1
            for b, p in zip(stepped[0], model.parameters(), strict=True):
                assert np.array_equal(b, p)
            return exc_info.value

        serial = run("1")
        threaded = run("2")
        assert serial.diagnostics["loss"] == math.inf
        assert (serial.diagnostics["epoch"], serial.diagnostics["step"]) == (5, 1)
        assert threaded.diagnostics == serial.diagnostics
        assert str(threaded) == str(serial)

    @pytest.mark.parametrize("workers", ["0", "x", "-1"])
    def test_bad_worker_count_rejected(self, monkeypatch, workers):
        monkeypatch.setenv("CASCADE_RECON_THREADS", workers)
        model, images, cfg, state, rng = small_setup()
        with pytest.raises(InvalidParameterError, match="CASCADE_RECON_THREADS"):
            train_epoch(model, images, cfg, rng, state)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block, rather than hang, after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


class TestWorkerProcesses:
    """Failures in one batch of 4 samples run on forked worker processes,
    with augmentation off so that a spy knows each sample's place in the
    batch from its image's bytes: a sample sent to a worker is a copy."""

    @staticmethod
    def run_epoch(monkeypatch, workers, act, log=None):
        """One epoch with ``_sample_step`` replaced by a spy that appends
        each sample's place to the file ``log``, if given, then calls
        ``act(place)``; returns the Adam state."""
        monkeypatch.setenv("CASCADE_RECON_THREADS", workers)
        model, images, cfg, state, rng = small_setup(n_images=4, batch_size=4, augment=False)
        order = Rng(0).child(1).gen.permutation(4)
        place = {images[k].channels.tobytes(): i for i, k in enumerate(order)}
        step = training._sample_step

        def spy(model, x_t, mask):
            i = place[x_t.channels.tobytes()]
            if log is not None:
                with open(log, "a") as f:
                    f.write(f"{i}\n")
            act(i)
            return step(model, x_t, mask)

        monkeypatch.setattr(training, "_sample_step", spy)
        with deadline(60):
            try:
                train_epoch(model, images, cfg, rng, state)
            finally:
                assert multiprocessing.active_children() == []
        return state

    @pytest.mark.parametrize("workers", ["2", "3"])
    @pytest.mark.parametrize("bad", [(1, 2), (2, 3)], ids=["sample1", "sample2"])
    def test_first_error_in_sample_order_reaches_the_caller(self, monkeypatch, workers, bad):
        # sample 1 runs on worker 1; sample 2 on the caller with 2 workers
        # and on worker 2 with 3; sample 3 on worker 1 with 2 and on the
        # caller with 3. Whichever process runs it, the first failing sample's
        # error is raised, with its type and message
        def act(i):
            if i == bad[0]:
                raise InvalidShapeError(f"sample {i} has a bad shape")
            if i == bad[1]:
                raise InvalidParameterError(f"sample {i} has a bad parameter")

        with pytest.raises(InvalidShapeError) as exc_info:
            self.run_epoch(monkeypatch, workers, act)
        assert type(exc_info.value) is InvalidShapeError
        assert str(exc_info.value) == f"sample {bad[0]} has a bad shape"

    def test_a_worker_stops_at_its_first_failing_sample(self, monkeypatch, tmp_path):
        # with 2 workers, worker 1 runs samples 1 and 3 and the caller 0 and 2
        log = tmp_path / "ran"

        def act(i):
            if i == 1:
                raise InvalidParameterError("sample 1")

        with pytest.raises(InvalidParameterError, match="sample 1"):
            self.run_epoch(monkeypatch, "2", act, log)
        assert sorted(int(line) for line in log.read_text().split()) == [0, 1, 2]

    def test_a_dead_worker_raises_invalid_state(self, monkeypatch):
        # worker 1 dies on sample 3, its second, without a word to the caller
        caller = os.getpid()

        def act(i):
            if i == 3 and os.getpid() != caller:
                os._exit(3)

        with pytest.raises(InvalidStateError, match="training worker 1 of 2 exited mid-batch with code 3"):
            self.run_epoch(monkeypatch, "2", act)

    def test_a_dead_worker_does_not_mask_an_earlier_error(self, monkeypatch, tmp_path):
        # with 2 workers, worker 1 dies on sample 1, and only then does the
        # caller's sample 0 raise: sample 0 comes first in sample order, so
        # its error is raised, and worker 1's pipe is never read
        caller, dead = os.getpid(), tmp_path / "dead"

        def act(i):
            if i == 1 and os.getpid() != caller:
                dead.touch()
                os._exit(3)
            if i == 0 and os.getpid() == caller:
                while not dead.exists():
                    time.sleep(0.01)
                time.sleep(0.05)  # lets the worker exit
                raise InvalidShapeError("sample 0 has a bad shape")

        with pytest.raises(InvalidShapeError, match="^sample 0 has a bad shape$"):
            self.run_epoch(monkeypatch, "2", act)

    def test_an_interrupt_in_the_caller_leaves_no_worker(self, monkeypatch):
        # sample 2 runs on the caller while worker 1 runs samples 1 and 3
        caller = os.getpid()

        def act(i):
            if i == 2 and os.getpid() == caller:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            self.run_epoch(monkeypatch, "2", act)

    @pytest.mark.parametrize("workers", ["2", "3"])
    def test_a_normal_epoch_leaves_no_worker(self, monkeypatch, workers):
        state = self.run_epoch(monkeypatch, workers, lambda i: None)
        assert state.t == 1


class TestTrainedParameterPin:
    # sha256 of every parameter's bytes, in checkpoint order, after two
    # epochs; 5 samples in batches of 2 leave a one-sample last batch.
    # Computed before the batch sum started from the first sample's
    # gradients, and equal for every worker count. A float32 model on
    # float64 images gets float64 gradients, summed in float32.
    DIGESTS = {
        ("float32", "float32"): "b817e46b08abcefa45fb3cd725cd84644affd631e46f2ac1c80e638c82d7d4af",
        ("float64", "float64"): "aeb58a639e6f9b898b76732cef9e5d24f0470578da669fde10c94f1830847508",
        ("float32", "float64"): "e500d3a1770600e69a37ebbc13dbc7d8b06b41e281ff8455756937fbc3367375",
    }

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("model_dtype,image_dtype", list(DIGESTS), ids=["float32", "float64", "mixed"])
    def test_two_epochs_match_the_pinned_digest(self, monkeypatch, model_dtype, image_dtype, workers):
        monkeypatch.setenv("CASCADE_RECON_THREADS", workers)
        images = [img.astype(image_dtype) for img in make_dataset(5, 16, 16, seed=17)]
        model = build_model(Rng(0).child(0), n_c=2, n_d=2, n_f=4, dtype=model_dtype)
        cfg = TrainConfig(batch_size=2, acceleration=3.0, n_low=4)
        state = init_adam_state(model.parameters())
        rng = Rng(0).child(1)
        for epoch in range(2):
            train_epoch(model, images, cfg, rng, state, epoch=epoch)
        assert state.t == 6
        digest = hashlib.sha256(b"".join(p.tobytes() for p in model.parameters())).hexdigest()
        assert digest == self.DIGESTS[model_dtype, image_dtype]
