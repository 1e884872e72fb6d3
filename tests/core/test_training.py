"""Tests for the Trainer harness and metrics."""

import numpy as np
import pytest

from repro.core import MUSENet
from repro.metrics import EvalReport, evaluate_flows, mae, mape, rmse
from repro.training import TrainConfig, Trainer
from repro.training import trainer as trainer_module


class TestMetrics:
    def test_rmse_zero_for_perfect(self):
        x = np.random.default_rng(0).uniform(0, 5, (4, 2, 3, 3))
        assert rmse(x, x) == 0.0

    def test_rmse_known_value(self):
        assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(
            np.sqrt(12.5)
        )

    def test_mae_known_value(self):
        assert mae(np.array([0.0, 0.0]), np.array([3.0, -4.0])) == 3.5

    def test_mape_masks_small_targets(self):
        prediction = np.array([1.0, 100.0])
        target = np.array([0.01, 50.0])  # first entry below threshold
        assert mape(prediction, target) == pytest.approx(1.0)

    def test_mape_nan_when_all_masked(self):
        assert np.isnan(mape(np.array([1.0]), np.array([0.0])))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(3), np.zeros(4))

    def test_mask_argument(self):
        prediction = np.array([0.0, 10.0])
        target = np.array([0.0, 0.0])
        assert rmse(prediction, target, mask=np.array([True, False])) == 0.0

    def test_empty_mask_raises(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(3), np.zeros(3), mask=np.zeros(3, dtype=bool))

    def test_sample_mask_selects_samples_not_columns(self):
        # Seed regression: a 1-D mask of length N against an (N, M)
        # target hit numpy's *trailing* broadcast and silently selected
        # columns.  The mask must align to the leading (sample) axis:
        # keeping sample 0 of this pair gives a perfect score; keeping
        # column 0 would average in the error at [1, 0].
        prediction = np.array([[0.0, 0.0], [10.0, 0.0]])
        target = np.zeros((2, 2))
        assert rmse(prediction, target, mask=np.array([True, False])) == 0.0
        assert mae(prediction, target, mask=np.array([True, False])) == 0.0
        # Hand-computed with sample 1 kept: errors (10, 0).
        assert rmse(prediction, target,
                    mask=np.array([False, True])) == pytest.approx(
            np.sqrt(50.0))
        assert mae(prediction, target,
                   mask=np.array([False, True])) == 5.0

    def test_cell_mask_still_broadcasts_on_trailing_axes(self):
        # A (H, W)-shaped mask is a cell mask: ordinary trailing
        # broadcast across samples and channels.
        prediction = np.zeros((3, 2, 2, 2))
        target = np.zeros((3, 2, 2, 2))
        prediction[..., 0, 1] = 4.0  # error only in the masked-out cell
        cell_mask = np.array([[True, False], [True, True]])
        assert rmse(prediction, target, mask=cell_mask) == 0.0

    def test_unresolvable_mask_shape_raises(self):
        with pytest.raises(ValueError, match="mask shape"):
            rmse(np.zeros((4, 3)), np.zeros((4, 3)),
                 mask=np.ones(2, dtype=bool))

    def test_mape_mask_intersects_threshold(self):
        # Hand-computed: the mask keeps samples 0 and 1; within those,
        # only targets clearing |t| >= 1 contribute.  Sample 2 (error
        # 100%) must not leak in through either branch.
        prediction = np.array([2.0, 5.0, 20.0])
        target = np.array([1.0, 0.5, 10.0])
        mask = np.array([True, True, False])
        # Survivors of mask ∩ threshold: only index 0 -> |2-1|/1 = 1.0
        assert mape(prediction, target, mask=mask) == pytest.approx(1.0)
        # All masked-in targets below threshold -> nan, not an average
        # over the (masked-out but above-threshold) index 2.
        assert np.isnan(mape(prediction, target,
                             mask=np.array([False, True, False])))

    def test_mape_masked_known_value(self):
        prediction = np.array([[2.0, 8.0], [30.0, 7.0]])
        target = np.array([[1.0, 4.0], [10.0, 0.2]])
        # Sample mask keeps row 1; threshold then drops target 0.2:
        # survivors {30 vs 10} -> 2.0 exactly.
        assert mape(prediction, target,
                    mask=np.array([False, True])) == pytest.approx(2.0)

    def test_evaluate_flows_channels(self):
        rng = np.random.default_rng(0)
        target = rng.uniform(1, 10, (6, 2, 3, 3))
        prediction = target.copy()
        prediction[:, 0] += 1.0  # bias only the outflow channel
        report = evaluate_flows(prediction, target)
        assert report.outflow_rmse == pytest.approx(1.0)
        assert report.inflow_rmse == 0.0

    def test_evaluate_flows_sample_mask(self):
        rng = np.random.default_rng(0)
        target = rng.uniform(1, 10, (6, 2, 3, 3))
        prediction = target.copy()
        prediction[3:] += 5.0
        clean = evaluate_flows(prediction, target,
                               sample_mask=np.array([1, 1, 1, 0, 0, 0], dtype=bool))
        assert clean.outflow_rmse == 0.0

    def test_evaluate_flows_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            evaluate_flows(np.zeros((3, 4)), np.zeros((3, 4)))

    def test_report_row_order(self):
        report = EvalReport(1, 2, 3, 4, 5, 6)
        assert report.row() == (1, 2, 3, 4, 5, 6)
        assert "RMSE" in str(report)


class TestTrainer:
    def test_fit_improves_validation(self, tiny_data, tiny_config):
        model = MUSENet(tiny_config)
        trainer = Trainer(model, TrainConfig(epochs=5, lr=1e-3, seed=0))
        history = trainer.fit(tiny_data)
        assert history.epochs_run == 5
        assert history.val_rmse[-1] < history.val_rmse[0]

    def test_best_weights_restored(self, tiny_data, tiny_config):
        model = MUSENet(tiny_config)
        trainer = Trainer(model, TrainConfig(epochs=4, lr=1e-3, seed=0))
        history = trainer.fit(tiny_data)
        # After fit, evaluating val must reproduce the best epoch's rmse.
        prediction = trainer.predict_flows(tiny_data, tiny_data.val)
        truth = tiny_data.inverse(tiny_data.val.target)
        assert rmse(prediction, truth) == pytest.approx(history.best_val_rmse, rel=1e-9)

    def test_early_stopping(self, tiny_data, tiny_config, monkeypatch):
        model = MUSENet(tiny_config)
        trainer = Trainer(model, TrainConfig(epochs=50, lr=1e-9, patience=1,
                                             seed=0))
        # A flat validation curve: nothing improves on epoch 0, so
        # training stops early.
        monkeypatch.setattr(trainer, "_validation_rmse", lambda data: 1.0)
        history = trainer.fit(tiny_data)
        assert history.stopped_early
        assert history.epochs_run < 50

    def test_early_stopping_patience_is_exact(self, tiny_data, tiny_config,
                                              monkeypatch):
        # Regression: `bad_epochs > patience` tolerated patience + 1
        # non-improving epochs.  With patience=1 the run must stop right
        # after the first non-improving epoch: epoch 0 improves (first
        # val-RMSE is always a new best), epoch 1 does not -> 2 epochs.
        model = MUSENet(tiny_config)
        trainer = Trainer(model, TrainConfig(epochs=50, lr=1e-9, patience=1,
                                             seed=0))
        monkeypatch.setattr(trainer, "_validation_rmse", lambda data: 1.0)
        history = trainer.fit(tiny_data)
        assert history.stopped_early
        assert history.epochs_run == 2

    def test_telemetry_recorded(self, tiny_data, tiny_config):
        model = MUSENet(tiny_config)
        trainer = Trainer(model, TrainConfig(epochs=2, lr=1e-3))
        history = trainer.fit(tiny_data)
        assert len(history.epoch_time) == history.epochs_run == 2
        assert all(t > 0 for t in history.epoch_time)
        assert all(b > 0 for b in history.batches_per_sec)
        assert history.total_time == pytest.approx(sum(history.epoch_time))
        assert "epochs in" in history.telemetry_summary()
        assert trainer.history is history

    def test_profile_ops_collects_op_profile(self, tiny_data, tiny_config):
        from repro.profiling import get_active_profiler

        model = MUSENet(tiny_config)
        trainer = Trainer(model, TrainConfig(epochs=1, lr=1e-3, profile_ops=True))
        history = trainer.fit(tiny_data)
        assert history.op_profile is not None
        ops = history.op_profile["ops"]
        assert "conv2d" in ops
        assert ops["conv2d"]["backward_calls"] > 0
        assert history.peak_tape_bytes > 0
        # The profiler must be uninstalled once fit() returns.
        assert get_active_profiler() is None

    def test_profile_ops_off_by_default(self, tiny_data, tiny_config):
        model = MUSENet(tiny_config)
        history = Trainer(model, TrainConfig(epochs=1, lr=1e-3)).fit(tiny_data)
        assert history.op_profile is None
        assert history.peak_tape_bytes == 0

    def test_evaluate_returns_report(self, tiny_data, tiny_config):
        model = MUSENet(tiny_config)
        trainer = Trainer(model, TrainConfig(epochs=1, lr=1e-3))
        trainer.fit(tiny_data)
        report = trainer.evaluate(tiny_data)
        assert np.isfinite(report.outflow_rmse)

    def test_predictions_in_flow_units(self, tiny_data, tiny_config):
        model = MUSENet(tiny_config)
        trainer = Trainer(model, TrainConfig(epochs=2, lr=1e-3))
        trainer.fit(tiny_data)
        flows = trainer.predict_flows(tiny_data, tiny_data.test)
        # Flow units are non-negative-ish counts; scaled units live in
        # [-1, 1].  A trained model must leave the scaled range.
        assert flows.max() > 1.5

    def test_chunked_prediction_matches_single(self, tiny_data, tiny_config,
                                               monkeypatch):
        trainer = Trainer(MUSENet(tiny_config))
        monkeypatch.setattr(trainer_module, "EVAL_BATCH_SIZE", 3)
        small_chunks = trainer.predict_scaled(tiny_data.test)
        monkeypatch.setattr(trainer_module, "EVAL_BATCH_SIZE", 1000)
        np.testing.assert_allclose(
            small_chunks, trainer.predict_scaled(tiny_data.test))

    def test_predict_scaled_empty_batch(self, tiny_data, tiny_config):
        # Seed regression: an empty batch crashed in np.concatenate
        # ("need at least one array to concatenate") instead of
        # returning the well-defined empty answer.
        model = MUSENet(tiny_config)
        trainer = Trainer(model)
        empty = tiny_data.test.slice(0, 0)
        prediction = trainer.predict_scaled(empty)
        assert prediction.shape == (0,) + tiny_data.test.target.shape[1:]
        assert prediction.dtype == tiny_data.test.target.dtype

    def test_predict_scaled_tail_smaller_than_chunk(self, tiny_data,
                                                    tiny_config, monkeypatch):
        # Odd tails at every relative size: N < chunk, N == chunk, and
        # N % chunk != 0 must all equal the one-shot forward row-for-row.
        trainer = Trainer(MUSENet(tiny_config))
        monkeypatch.setattr(trainer_module, "EVAL_BATCH_SIZE", 1000)
        reference = trainer.predict_scaled(tiny_data.test)
        monkeypatch.setattr(trainer_module, "EVAL_BATCH_SIZE", 5)
        for n in (2, 5, 7):
            got = trainer.predict_scaled(tiny_data.test.slice(0, n))
            np.testing.assert_allclose(got, reference[:n])

    def test_batch_size_validation(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)
