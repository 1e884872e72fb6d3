"""Predictive uncertainty for flow forecasts.

The paper's related work points at uncertainty quantification for
traffic forecasting (Qian et al., ICDE 2023); this module adds split
conformal intervals, a standard model-agnostic tool, on top of any
trained forecaster: calibrate a residual quantile on the validation
split, and the intervals carry a finite-sample marginal coverage
guarantee under exchangeability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ConformalForecaster", "interval_coverage"]


@dataclass
class _Intervals:
    """Prediction intervals in flow units."""

    prediction: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    alpha: float


class ConformalForecaster:
    """Split conformal prediction around a fitted trainer.

    Parameters
    ----------
    trainer:
        A fitted :class:`~repro.training.Trainer`.
    data:
        The :class:`~repro.data.pipeline.ForecastData` it was fit on;
        the validation split provides the calibration residuals.
    """

    def __init__(self, trainer, data):
        self.trainer = trainer
        self.data = data
        prediction = trainer.predict_flows(data, data.val)
        truth = data.inverse(data.val.target)
        # One absolute-residual score per calibration sample (max over
        # cells would give joint coverage; per-cell pooling gives the
        # standard marginal guarantee per cell).
        self._scores = np.abs(prediction - truth).reshape(-1)
        if len(self._scores) == 0:
            raise ValueError("validation split is empty; cannot calibrate")

    def quantile(self, alpha):
        """The calibrated residual quantile for miscoverage ``alpha``."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1); got {alpha}")
        n = len(self._scores)
        # Finite-sample-corrected conformal quantile.
        level = min(1.0, np.ceil((n + 1) * (1.0 - alpha)) / n)
        return float(np.quantile(self._scores, level))

    def predict_intervals(self, batch, alpha=0.1):
        """Point predictions plus symmetric conformal intervals."""
        prediction = self.trainer.predict_flows(self.data, batch)
        margin = self.quantile(alpha)
        return _Intervals(
            prediction=prediction,
            lower=prediction - margin,
            upper=prediction + margin,
            alpha=alpha,
        )


def interval_coverage(intervals, truth):
    """Empirical fraction of cells whose truth falls in the interval."""
    truth = np.asarray(truth)
    inside = (truth >= intervals.lower) & (truth <= intervals.upper)
    return float(inside.mean())
