"""Trainer + ParallelEngine: config plumbing, fault tolerance, telemetry.

The sentinel, checkpoint/resume, and profiler must all keep functioning
when ``TrainConfig.workers > 1`` routes the fit through the worker pool.
"""

import multiprocessing

import numpy as np
import pytest

from repro.training import TrainConfig, Trainer
from repro.training.checkpoint import find_latest_checkpoint, load_checkpoint
from repro.training.sentinel import DivergenceError
from tests.robustness.injectors import FaultInjector, ToyForecaster


def _fit(tiny_data, **overrides):
    defaults = dict(epochs=2, batch_size=8, sentinel=None, lr=1e-3)
    defaults.update(overrides)
    model = ToyForecaster(tiny_data)
    trainer = Trainer(model, TrainConfig(**defaults))
    history = trainer.fit(tiny_data)
    return trainer, history


class TestConfigPlumbing:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            TrainConfig(workers=-1)

    def test_workers_zero_keeps_serial_path(self, tiny_data):
        _, history = _fit(tiny_data, workers=0)
        assert history.parallel is None

    def test_parallel_fit_records_telemetry(self, tiny_data):
        trainer, history = _fit(tiny_data, workers=2)
        assert history.parallel["workers"] == 2
        assert history.parallel["steps"] == 4  # 16 samples / 8 * 2 epochs
        assert history.parallel["reduce_count"] == 4
        assert "workers" in history.telemetry_summary()
        assert multiprocessing.active_children() == []
        # Model detached from shared memory and finite after the fit.
        for param in trainer.model.parameters():
            assert param.data.base is None
            assert np.isfinite(param.data).all()


class TestEquivalenceThroughTrainer:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_parallel_fit_matches_serial_fit(self, tiny_data, workers):
        # ToyForecaster's loss ignores the rng, and the parallel path
        # draws the epoch shuffle from the trainer rng exactly like the
        # serial path — so the whole fit (losses, final weights) must
        # agree to float tolerance at every worker count.
        _, serial_history = _fit(tiny_data, workers=0, seed=3)
        _, parallel_history = _fit(tiny_data, workers=workers, seed=3)
        np.testing.assert_allclose(parallel_history.train_loss,
                                   serial_history.train_loss,
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(parallel_history.val_rmse,
                                   serial_history.val_rmse,
                                   rtol=0, atol=1e-7)

    def test_same_seed_same_workers_is_reproducible(self, tiny_data):
        _, first = _fit(tiny_data, workers=2, seed=5)
        _, second = _fit(tiny_data, workers=2, seed=5)
        assert first.train_loss == second.train_loss  # bit-equal
        assert first.val_rmse == second.val_rmse


class TestSentinelUnderWorkers:
    def test_nan_loss_raises_through_pool(self, tiny_data):
        # Every worker replica runs the injector's schedule in lockstep
        # (one training_loss call per global step), so a NaN at step 1
        # poisons the *reduced* loss and gradient; the parent-side
        # sentinel must catch it exactly like the serial path.
        model = FaultInjector(ToyForecaster(tiny_data), nan_loss_steps=(1,))
        trainer = Trainer(model, TrainConfig(epochs=2, batch_size=8,
                                             sentinel="raise", workers=2))
        with pytest.raises(DivergenceError):
            trainer.fit(tiny_data)
        assert multiprocessing.active_children() == []

    def test_skip_batch_policy_continues_training(self, tiny_data):
        model = FaultInjector(ToyForecaster(tiny_data), nan_loss_steps=(1,))
        trainer = Trainer(model, TrainConfig(epochs=2, batch_size=8,
                                             sentinel="skip_batch", workers=2))
        history = trainer.fit(tiny_data)
        assert history.epochs_run == 2
        assert history.sentinel["events"]
        assert all(np.isfinite(loss) for loss in history.train_loss)
        assert multiprocessing.active_children() == []


class TestCheckpointUnderWorkers:
    def test_checkpoint_and_resume(self, tiny_data, tmp_path):
        directory = str(tmp_path / "ckpt")
        _, history = _fit(tiny_data, workers=2, epochs=2,
                          checkpoint_dir=directory, checkpoint_every=1)
        assert history.epochs_run == 2
        newest = find_latest_checkpoint(directory)
        assert newest is not None
        # Resume into a longer schedule, still under workers.
        model = ToyForecaster(tiny_data)
        trainer = Trainer(model, TrainConfig(
            epochs=3, batch_size=8, sentinel=None, lr=1e-3, workers=2,
            checkpoint_dir=directory, checkpoint_every=1, resume=True))
        resumed = trainer.fit(tiny_data)
        assert resumed.epochs_run == 3  # 2 restored + 1 new
        assert multiprocessing.active_children() == []


class TestProfilerUnderWorkers:
    def test_profile_ops_records_parallel_counters(self, tiny_data):
        _, history = _fit(tiny_data, workers=2, profile_ops=True)
        assert history.parallel["steps"] == 4
        assert history.parallel["reduce_s"] >= 0.0
        assert history.parallel["prefetch_stall_s"] >= 0.0
        # Worker replicas silence the parent profiler: training-loop
        # backward work happens in the children, so the parent's op
        # table must only show (forward-only) evaluation ops.
        assert all(stats["backward_calls"] == 0
                   for stats in history.op_profile["ops"].values())

    def test_serial_profile_keeps_zero_parallel_counters(self, tiny_data):
        _, history = _fit(tiny_data, workers=0, profile_ops=True)
        assert history.parallel is None
        assert history.op_profile["ops"]  # serial path records ops
