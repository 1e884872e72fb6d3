"""Evaluation must not record an autodiff tape (ISSUE 5 satellite).

``Trainer.predict_scaled`` wraps its chunk loop in ``no_grad()`` so
models whose ``predict`` does not guard itself cannot leak a tape per
evaluation batch.  The regression model here is deliberately unguarded:
the trainer-level guard is the only thing keeping the tape empty.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.losses import LossBreakdown
from repro.nn import Linear, Module
from repro.nn.losses import mse_loss
from repro.profiling import profile
from repro.tensor import Tensor
from repro.training import Trainer
from repro.training import trainer as trainer_module


class UnguardedForecaster(Module):
    """Protocol model whose ``predict`` does *not* use ``no_grad``."""

    def __init__(self, data, seed=0):
        super().__init__()
        _n, length, channels, height, width = data.train.closeness.shape
        self._target_shape = (channels, height, width)
        self.linear = Linear(length * channels * height * width,
                             channels * height * width,
                             rng=np.random.default_rng(seed))

    def forward(self, closeness):
        flat = Tensor(closeness.reshape(closeness.shape[0], -1))
        return self.linear(flat)

    def training_loss(self, batch, rng=None):
        prediction = self.forward(batch.closeness)
        target = Tensor(batch.target.reshape(len(batch), -1))
        reg = mse_loss(prediction, target)
        zero = Tensor(0.0)
        return (LossBreakdown(total=reg, dis=zero, push=zero, pull=zero,
                              reg=reg),
                SimpleNamespace(prediction=prediction))

    def predict(self, batch):
        # No no_grad() on purpose: with gradients enabled this records
        # a tape node per op, per evaluation chunk.
        prediction = self.forward(batch.closeness)
        return prediction.data.reshape((len(batch),) + self._target_shape)


@pytest.fixture
def eval_chunk_4(monkeypatch):
    """Evaluate in chunks of 4, so every split spans several chunks."""
    monkeypatch.setattr(trainer_module, "EVAL_BATCH_SIZE", 4)


@pytest.mark.usefixtures("eval_chunk_4")
class TestEvaluationRecordsNoTape:
    def test_predict_scaled_runs_tape_free(self, tiny_data):
        trainer = Trainer(UnguardedForecaster(tiny_data))
        with profile() as prof:
            prediction = trainer.predict_scaled(tiny_data.test)
        assert prediction.shape[0] == len(tiny_data.test)
        # Ops ran (the forward is observed) but none joined the tape.
        assert prof.stats["matmul"].calls >= 1
        assert prof.tape_bytes == 0
        assert prof.peak_tape_bytes == 0

    def test_evaluate_runs_tape_free(self, tiny_data):
        trainer = Trainer(UnguardedForecaster(tiny_data))
        with profile() as prof:
            report = trainer.evaluate(tiny_data)
        assert np.isfinite(report.outflow_rmse)
        assert prof.peak_tape_bytes == 0

    def test_chunked_eval_uses_contiguous_views(self, tiny_data,
                                                monkeypatch):
        # The chunk loop slices, not fancy-indexes: chunks alias the
        # evaluation batch's storage instead of copying it.
        chunk = tiny_data.test.slice(0, 4)
        assert np.shares_memory(chunk.closeness, tiny_data.test.closeness)
        trainer = Trainer(UnguardedForecaster(tiny_data))
        small = trainer.predict_scaled(tiny_data.test)
        monkeypatch.setattr(trainer_module, "EVAL_BATCH_SIZE", 64)
        big = trainer.predict_scaled(tiny_data.test)
        np.testing.assert_allclose(small, big)
