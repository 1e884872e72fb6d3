"""Divergence-sentinel fault injection: every policy, end to end."""

import numpy as np
import pytest

from repro.training import DivergenceError, TrainConfig, Trainer
from repro.training.sentinel import DivergenceSentinel

from tests.robustness.injectors import FaultInjector, ToyForecaster


def make_trainer(tiny_data, model, **overrides):
    defaults = dict(epochs=3, batch_size=8, lr=1e-2, seed=0)
    defaults.update(overrides)
    return Trainer(model, TrainConfig(**defaults))


class TestRaisePolicy:
    def test_nan_loss_raises_before_weights_poisoned(self, tiny_data):
        model = FaultInjector(ToyForecaster(tiny_data),
                              nan_loss_steps={2})
        before = {name: value.copy()
                  for name, value in model.state_dict().items()}
        trainer = make_trainer(tiny_data, model, sentinel="raise")
        with pytest.raises(DivergenceError, match="nonfinite_loss"):
            trainer.fit(tiny_data)
        # The flagged update never reached the weights; every parameter
        # is still finite (steps 0-1 did run, so values may differ).
        for param in model.parameters():
            assert np.isfinite(param.data).all()
        assert model.state_dict().keys() == before.keys()

    def test_nan_grad_with_finite_loss_raises(self, tiny_data):
        model = FaultInjector(ToyForecaster(tiny_data),
                              nan_grad_steps={1})
        trainer = make_trainer(tiny_data, model, sentinel="raise")
        with pytest.raises(DivergenceError, match="nonfinite_grad"):
            trainer.fit(tiny_data)

    def test_error_carries_event(self, tiny_data):
        model = FaultInjector(ToyForecaster(tiny_data), nan_loss_steps={0})
        trainer = make_trainer(tiny_data, model, sentinel="raise")
        with pytest.raises(DivergenceError) as excinfo:
            trainer.fit(tiny_data)
        event = excinfo.value.event
        assert event.kind == "nonfinite_loss"
        assert event.step == 0
        assert event.action == "raise"


class TestSkipBatchPolicy:
    def test_run_completes_with_finite_weights(self, tiny_data):
        model = FaultInjector(ToyForecaster(tiny_data),
                              nan_loss_steps={1, 3})
        trainer = make_trainer(tiny_data, model, sentinel="skip_batch")
        history = trainer.fit(tiny_data)
        assert history.epochs_run == 3
        for param in model.parameters():
            assert np.isfinite(param.data).all()
        assert np.isfinite(history.train_loss).all()
        report = history.sentinel
        assert report["policy"] == "skip_batch"
        assert report["counts"] == {"nonfinite_loss": 2}
        assert [e["step"] for e in report["events"]] == [1, 3]

    def test_skipped_batch_takes_no_optimizer_step(self, tiny_data):
        model = FaultInjector(ToyForecaster(tiny_data), nan_loss_steps={0})
        trainer = make_trainer(tiny_data, model, sentinel="skip_batch",
                               epochs=1)
        trainer.fit(tiny_data)
        # 2 batches/epoch, one skipped -> exactly one optimizer step.
        assert trainer.optimizer._step_count == 1


class TestRollbackPolicy:
    def test_rollback_restores_weights_and_backs_off_lr(self, tiny_data):
        model = FaultInjector(ToyForecaster(tiny_data), nan_loss_steps={2})
        trainer = make_trainer(tiny_data, model, sentinel="rollback")
        lr_before = trainer.optimizer.lr
        history = trainer.fit(tiny_data)
        assert history.epochs_run == 3
        assert trainer.optimizer.lr == pytest.approx(lr_before * 0.5)
        report = history.sentinel
        assert report["rollbacks"] == 1
        for param in model.parameters():
            assert np.isfinite(param.data).all()

    def test_rollback_budget_exhaustion_raises(self, tiny_data):
        # Every step is poisoned: the budget (3) must trip.
        model = FaultInjector(ToyForecaster(tiny_data),
                              nan_loss_steps=set(range(32)))
        trainer = make_trainer(tiny_data, model, sentinel="rollback")
        with pytest.raises(DivergenceError, match="rollback"):
            trainer.fit(tiny_data)

    def test_rollback_restores_optimizer_moments(self, tiny_data):
        # After a clean epoch 0, epoch 1's first step diverges.  The
        # restore must bring back the snapshot's Adam step count.
        model = FaultInjector(ToyForecaster(tiny_data), nan_loss_steps={2})
        trainer = make_trainer(tiny_data, model, sentinel="rollback",
                               epochs=2)
        trainer.fit(tiny_data)
        # epoch 0: 2 steps; epoch 1: rollback to 2 steps, then 1 good step.
        assert trainer.optimizer._step_count == 3


class TestSpikeDetection:
    def test_exploding_gradient_flagged(self, tiny_data):
        # Step 11 follows 11 healthy steps: past the 10-step warmup.
        model = FaultInjector(ToyForecaster(tiny_data),
                              scale_loss_steps={11: 1e9})
        trainer = make_trainer(tiny_data, model, sentinel="raise", epochs=6)
        with pytest.raises(DivergenceError, match="grad_spike"):
            trainer.fit(tiny_data)

    def test_spike_needs_warmup(self):
        sentinel = DivergenceSentinel(policy="raise", spike_factor=10.0,
                                      warmup=5)

        class FakeParam:
            def __init__(self, grad):
                self.grad = grad

        params = [FakeParam(np.ones(4))]
        # Before warmup, even a huge norm passes.
        big = [FakeParam(np.full(4, 1e12))]
        assert sentinel.check(1.0, big, step=0, epoch=0) is None

    def test_spike_ema_not_dragged_by_spikes(self):
        sentinel = DivergenceSentinel(policy="skip_batch", spike_factor=10.0,
                                      warmup=2)

        class FakeParam:
            def __init__(self, value):
                self.grad = np.full(4, value)

        for step in range(5):
            assert sentinel.check(1.0, [FakeParam(1.0)], step, 0) is None
        spike = [FakeParam(1e6)]
        assert sentinel.check(1.0, spike, 5, 0) is not None
        # The spike must not have raised the baseline: it fires again.
        assert sentinel.check(1.0, spike, 6, 0) is not None


class TestCleanRunNeutrality:
    def test_sentinel_on_is_bit_identical_to_off(self, tiny_data):
        weights = {}
        for policy in (None, "rollback"):
            model = ToyForecaster(tiny_data, seed=0)
            trainer = Trainer(model, TrainConfig(
                epochs=2, batch_size=8, lr=1e-2, seed=0, sentinel=policy))
            trainer.fit(tiny_data)
            weights[policy] = [p.data.copy() for p in model.parameters()]
        for a, b in zip(weights[None], weights["rollback"]):
            np.testing.assert_array_equal(a, b)

    def test_clean_run_reports_no_events(self, tiny_data):
        model = ToyForecaster(tiny_data)
        trainer = make_trainer(tiny_data, model, sentinel="raise")
        history = trainer.fit(tiny_data)
        assert history.sentinel["counts"] == {}
        assert history.sentinel["events"] == []


class TestConfigValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="sentinel"):
            TrainConfig(sentinel="explode")

    def test_off_aliases_to_none(self):
        assert TrainConfig(sentinel="off").sentinel is None

    def test_checkpoint_every_requires_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            TrainConfig(checkpoint_every=2)

    def test_resume_requires_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            TrainConfig(resume=True)

    def test_bad_checkpoint_every_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            TrainConfig(checkpoint_every=0, checkpoint_dir="x")


class _Param:
    def __init__(self, value):
        self.grad = np.full(4, float(value))


class TestEmaColdStart:
    """The spike baseline's seeding semantics (PR 8 edge cases)."""

    def test_first_healthy_step_seeds_ema_with_its_own_norm(self):
        sentinel = DivergenceSentinel(policy="raise", spike_factor=10.0,
                                      warmup=2)
        assert sentinel.check(1.0, [_Param(3.0)], step=0, epoch=0) is None
        # EMA == first norm exactly, not beta-decayed toward zero.
        assert sentinel._norm_ema == pytest.approx(sentinel.last_norm)

    def test_warmup_spike_does_not_poison_the_baseline(self):
        # A huge norm during warmup is folded as "healthy" (nothing to
        # compare against yet), but the EMA then tracks later normal
        # steps instead of staying pinned at the outlier.
        sentinel = DivergenceSentinel(policy="raise", spike_factor=10.0,
                                      warmup=1)
        assert sentinel.check(1.0, [_Param(1e6)], 0, 0) is None
        seeded = sentinel._norm_ema
        for step in range(1, 90):
            result = sentinel.check(1.0, [_Param(1.0)], step, 0)
            if result is not None:
                pytest.fail(f"normal step flagged after warmup outlier: "
                            f"{result.detail}")
        assert sentinel._norm_ema < seeded * 1e-2

    def test_zero_norm_baseline_never_divides_or_fires(self):
        # All-zero gradients keep the EMA at 0; the spike check must
        # stay quiet (guarded by _norm_ema > 0) rather than flag the
        # first real gradient as infinitely spiky.
        sentinel = DivergenceSentinel(policy="raise", spike_factor=10.0,
                                      warmup=2)
        for step in range(4):
            assert sentinel.check(1.0, [_Param(0.0)], step, 0) is None
        assert sentinel.check(1.0, [_Param(5.0)], 4, 0) is None


class TestRearm:
    """rearm() must behave exactly like step zero of a fresh run."""

    def _warmed(self, warmup=3):
        sentinel = DivergenceSentinel(policy="raise", spike_factor=10.0,
                                      warmup=warmup)
        for step in range(warmup + 1):
            assert sentinel.check(1.0, [_Param(1.0)], step, 0) is None
        return sentinel

    def test_rearm_resets_baseline_and_reenters_warmup(self):
        sentinel = self._warmed()
        # Armed: a 100x norm fires against the ~1.0 baseline.
        assert sentinel.check(1.0, [_Param(100.0)], 9, 0) is not None
        sentinel.rearm()
        assert sentinel._norm_ema == 0.0
        assert sentinel.last_norm is None
        # The same norm now passes: warmup restarted, no baseline.
        assert sentinel.check(1.0, [_Param(100.0)], 10, 0) is None

    def test_rearm_reseeds_ema_from_post_rollback_norms(self):
        # After rollback + lr backoff the healthy norm scale changes;
        # the re-seeded EMA must describe the new scale, so the new
        # normal is not flagged against the old baseline.
        sentinel = self._warmed()
        sentinel.rearm()
        for step in range(4):
            assert sentinel.check(1.0, [_Param(50.0)], step, 1) is None
        assert sentinel.check(1.0, [_Param(60.0)], 4, 1) is None
        # ...but a genuine spike against the *new* baseline still fires.
        assert sentinel.check(1.0, [_Param(5e4)], 5, 1) is not None

    def test_rearm_keeps_nonfinite_detection_and_history(self):
        sentinel = self._warmed()
        assert sentinel.check(1.0, [_Param(100.0)], 9, 0) is not None
        events_before = len(sentinel.events)
        sentinel.rearm()
        # Event history and counts survive; only the baseline resets.
        assert len(sentinel.events) == events_before
        assert sentinel.counts.get("grad_spike", 0) >= 1
        assert sentinel.check(float("nan"), [_Param(1.0)], 10, 0).kind == \
            "nonfinite_loss"
