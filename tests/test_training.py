import math
import threading

import numpy as np
import pytest

from mricascade import (
    AdamState,
    ComplexImage,
    InvalidParameterError,
    InvalidShapeError,
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

    @pytest.mark.parametrize("bad", [1, 2], ids=["pool-item", "caller-item"])
    def test_exception_propagates_and_leaves_no_thread(self, monkeypatch, bad):
        # with 2 workers item 1 runs on the pool and item 2 on the caller;
        # either way the pool's item 3 runs before the error reaches the caller
        ran = []

        def fail_on_bad(x):
            ran.append(x)
            if x == bad:
                raise ValueError(f"item {x}")
            return x

        monkeypatch.setenv("CASCADE_RECON_THREADS", "2")
        before = threading.active_count()
        with pytest.raises(ValueError, match=f"item {bad}"):
            training.ordered_map(fail_on_bad, [0, 1, 2, 3, 4])
        assert threading.active_count() == before
        assert 3 in ran and 4 not in ran


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
    def test_caller_runs_every_workers_th_sample(self, monkeypatch, workers, on_caller):
        # a batch of 4: the caller runs samples 0, 2 with 2 workers and 0, 3
        # with 3; the pool runs the rest and is gone when the epoch returns
        threads = []

        def spy(model, meas):
            threads.append(threading.current_thread())
            return cascade_forward(model, meas)

        monkeypatch.setattr(training, "cascade_forward", spy)
        monkeypatch.setenv("CASCADE_RECON_THREADS", workers)
        model, images, cfg, state, rng = small_setup(n_images=4, batch_size=4)
        before = threading.active_count()
        train_epoch(model, images, cfg, rng, state)
        assert threading.active_count() == before
        assert len(threads) == 4
        assert sum(t is threading.main_thread() for t in threads) == on_caller
        # the pool may run both its samples on one of its threads
        assert min(int(workers), 2) <= len(set(threads)) <= int(workers)

    def test_divergence_reports_first_sample_in_batch_order(self, monkeypatch):
        # samples 1 (on the pool) and 2 (on the caller) of the second batch
        # diverge: the error names sample 1's loss, and that batch takes no Adam step
        n_images, batch = 8, 4
        order = Rng(0).child(1).gen.permutation(n_images)

        def run(workers):
            monkeypatch.setenv("CASCADE_RECON_THREADS", workers)
            model, images, cfg, state, rng = small_setup(n_images=n_images, batch_size=batch, augment=False)
            bad = {id(images[order[batch + 1]]): math.inf, id(images[order[batch + 2]]): -math.inf}

            def spy(x_cnn, x_t):
                loss, grad = mse_loss(x_cnn, x_t)
                return bad.get(id(x_t), loss), grad

            monkeypatch.setattr(training, "mse_loss", spy)
            stepped = []
            with pytest.raises(TrainingDivergedError) as exc_info:
                train_epoch(
                    model, images, cfg, rng, state, epoch=5,
                    log_fn=lambda *_: stepped.append([p.copy() for p in model.parameters()]),
                )
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
