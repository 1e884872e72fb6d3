"""Drift detection over streaming forecast errors.

Training-time divergence (:mod:`repro.training.sentinel`) is about the
*optimizer* blowing up; streaming drift is about the *world* moving
while the weights stand still.  The signal is the per-tick forecast
error of the serving model, and the question is whether a run of
elevated errors is a sustained regime change (retrain) or a transient
spike (ignore: a concert ends, a sensor hiccups, one tick is filled).

:class:`DriftSentinel` keeps an EMA baseline of the error mean and
variance and feeds the standardized error into a one-sided CUSUM:

``z = (error - mean) / std``
``S = max(0, S + min(z - slack, increment_cap))``

Drift is confirmed when ``S`` crosses ``threshold``.  Two design
points do the spike/drift separation:

- the per-tick increment is capped, so no single outlier — however
  extreme — can move ``S`` by more than ``increment_cap``; only a
  *run* of elevated errors accumulates to the threshold;
- errors with ``z > spike_z`` are excluded from the EMA baseline, so
  a spike cannot inflate the variance estimate and mask the smaller
  but sustained shift that follows it.

A recent-error window (bounded ``deque``) backs the report with the
held-out statistics the operator sees.  After the runtime adapts (or
rolls back), :meth:`rearm` resets the accumulator and re-enters
warmup: the new weights produce a new error distribution, and judging
it against the old baseline would re-trigger immediately.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = ["DriftSentinel"]


class DriftSentinel:
    """EMA + CUSUM drift detector for a stream of forecast errors.

    Parameters
    ----------
    ema_beta:
        Baseline smoothing; 0.98 remembers roughly the last 50 ticks.
    slack:
        CUSUM slack ``k``: errors within ``slack`` standard deviations
        of the mean drain the accumulator instead of feeding it.
    threshold:
        Accumulated standardized excess that confirms drift.
    increment_cap:
        Per-tick cap on the accumulator increment (spike immunity).
    spike_z:
        Standardized errors above this are classified ``"spike"`` and
        excluded from the EMA baseline.
    warmup:
        Ticks used to seed the baseline before any classification.
    window:
        Length of the recent-error window kept for reporting.
    """

    def __init__(self, ema_beta=0.98, slack=0.5, threshold=8.0,
                 increment_cap=3.0, spike_z=6.0, warmup=16, window=64):
        if not 0.0 < ema_beta < 1.0:
            raise ValueError(f"ema_beta must be in (0, 1); got {ema_beta}")
        if threshold <= 0 or increment_cap <= 0:
            raise ValueError("threshold and increment_cap must be > 0")
        if warmup < 2:
            raise ValueError(f"warmup must be >= 2; got {warmup}")
        self.ema_beta = float(ema_beta)
        self.slack = float(slack)
        self.threshold = float(threshold)
        self.increment_cap = float(increment_cap)
        self.spike_z = float(spike_z)
        self.warmup = int(warmup)
        self._mean = 0.0
        self._var = 0.0
        self._seen = 0          # healthy errors folded into the baseline
        self._cusum = 0.0
        self.drifts = 0
        self.spikes = 0
        self.recent = deque(maxlen=int(window))

    # ------------------------------------------------------------------
    @property
    def cusum(self):
        """Current accumulator value (0 when quiescent)."""
        return self._cusum

    @property
    def baseline_mean(self):
        """The EMA error baseline (spikes excluded, so at the moment
        drift is confirmed this still describes the *pre-drift* error
        level — the recovery target for post-retrain probation)."""
        return self._mean

    @property
    def armed(self):
        """Whether the baseline has enough history to classify."""
        return self._seen >= self.warmup

    def _fold(self, error):
        """EMA update of the baseline mean/variance."""
        self._seen += 1
        if self._seen == 1:
            # Cold start: the first error *is* the baseline.  Variance
            # stays zero until a second sample disagrees with it.
            self._mean = error
            self._var = 0.0
            return
        beta = self.ema_beta
        delta = error - self._mean
        self._mean += (1.0 - beta) * delta
        self._var = beta * (self._var + (1.0 - beta) * delta * delta)

    def observe(self, error):
        """Classify one forecast error.

        Returns ``"warmup"`` (baseline still seeding), ``"ok"``,
        ``"spike"`` (transient outlier, excluded from the baseline),
        or ``"drift"`` (sustained shift confirmed; the caller should
        adapt and then :meth:`rearm`).
        """
        error = float(error)
        if not np.isfinite(error):
            # A non-finite error is a broken *measurement*, not a
            # drifted world; treat as a spike and keep the baseline.
            self.spikes += 1
            return "spike"
        self.recent.append(error)
        if not self.armed:
            self._fold(error)
            return "warmup"
        std = float(np.sqrt(self._var))
        if std <= 0.0:
            std = max(abs(self._mean), 1e-12) * 1e-3
        z = (error - self._mean) / std
        if z > self.spike_z:
            # First-step spike suppression: a single huge error moves
            # the CUSUM by at most increment_cap and never the EMA —
            # but a *run* of them still accumulates to the threshold,
            # because a hard regime change looks like spikes forever.
            self.spikes += 1
            self._cusum += self.increment_cap
            if self._cusum > self.threshold:
                self.drifts += 1
                return "drift"
            return "spike"
        self._fold(error)
        self._cusum = max(0.0, self._cusum
                          + min(z - self.slack, self.increment_cap))
        if self._cusum > self.threshold:
            self.drifts += 1
            return "drift"
        return "ok"

    def rearm(self):
        """Reset after adaptation: new weights, new error distribution."""
        self._mean = 0.0
        self._var = 0.0
        self._seen = 0
        self._cusum = 0.0
        self.recent.clear()

    # ------------------------------------------------------------------
    def snapshot(self):
        """JSON-able state: baseline, accumulator, recent-window stats."""
        recent = np.asarray(self.recent, dtype=np.float64)
        return {
            "armed": self.armed,
            "ema_mean": self._mean,
            "ema_std": float(np.sqrt(self._var)),
            "cusum": self._cusum,
            "threshold": self.threshold,
            "drifts": self.drifts,
            "spikes": self.spikes,
            "recent_mean": float(recent.mean()) if recent.size else None,
            "recent_max": float(recent.max()) if recent.size else None,
            "recent_count": int(recent.size),
        }
