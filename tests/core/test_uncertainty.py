"""Tests for conformal intervals."""

import numpy as np
import pytest

from repro.core import MUSENet
from repro.training import (
    ConformalForecaster,
    TrainConfig,
    Trainer,
    interval_coverage,
)


@pytest.fixture(scope="module")
def fitted(tiny_data, tiny_config):
    model = MUSENet(tiny_config)
    trainer = Trainer(model, TrainConfig(epochs=4, lr=2e-3, seed=0))
    trainer.fit(tiny_data)
    return trainer


class TestConformal:
    def test_quantile_monotone_in_alpha(self, fitted, tiny_data):
        conformal = ConformalForecaster(fitted, tiny_data)
        assert conformal.quantile(0.05) >= conformal.quantile(0.5)

    def test_invalid_alpha(self, fitted, tiny_data):
        conformal = ConformalForecaster(fitted, tiny_data)
        with pytest.raises(ValueError):
            conformal.quantile(0.0)
        with pytest.raises(ValueError):
            conformal.quantile(1.0)

    def test_intervals_contain_prediction(self, fitted, tiny_data):
        conformal = ConformalForecaster(fitted, tiny_data)
        intervals = conformal.predict_intervals(tiny_data.test, alpha=0.1)
        assert np.all(intervals.lower <= intervals.prediction)
        assert np.all(intervals.prediction <= intervals.upper)

    def test_coverage_near_nominal(self, fitted, tiny_data):
        conformal = ConformalForecaster(fitted, tiny_data)
        intervals = conformal.predict_intervals(tiny_data.test, alpha=0.2)
        truth = tiny_data.inverse(tiny_data.test.target)
        coverage = interval_coverage(intervals, truth)
        # Marginal guarantee is >= 1 - alpha under exchangeability; the
        # test tail shifts a bit, so allow slack below nominal.
        assert coverage > 0.6

    def test_smaller_alpha_wider_intervals(self, fitted, tiny_data):
        conformal = ConformalForecaster(fitted, tiny_data)
        tight = conformal.predict_intervals(tiny_data.test, alpha=0.5)
        wide = conformal.predict_intervals(tiny_data.test, alpha=0.05)
        tight_width = (tight.upper - tight.lower).mean()
        wide_width = (wide.upper - wide.lower).mean()
        assert wide_width >= tight_width
