"""The streaming runtime: ingest → windows → forecast → adapt.

:class:`StreamRuntime` is the facade tying the pieces together around
a :class:`~repro.serve.server.ForecastServer`:

- ticks enter through a :class:`~repro.stream.ingest.StreamIngestor`
  (watermark reordering, quarantine, gap declaration);
- ordered intervals go into the server's
  :class:`~repro.serve.cache.WindowCache` (``push_tick``/``push_gap``)
  and the bounded rolling history the warm-retrain path fits on.  The
  server holds the runtime's scaler, so the cache keeps raw frames and
  each forecast scales its sample: min-max scaling is elementwise, so
  transform-then-slice and slice-then-transform are bitwise identical
  — and caching raw keeps every cached window valid when adaptation
  widens the scaler bounds mid-stream;
- a model answer is the server's ``forecast_tick()``: one sample's
  windows, index and imputed counts, one single-sample forward (or
  the answer memoized for that window, generation and scaler bounds),
  then ``inverse_transform``;
- each model forecast is scored against the truth tick that later
  arrives for its interval; the error feeds a
  :class:`~repro.stream.drift.DriftSentinel`;
- confirmed drift triggers bounded warm re-training
  (:func:`~repro.stream.adapt.warm_retrain`) and a generation-counted
  hot swap; while the model is flagged, retraining, or the swap
  failed, forecasts come from the degradation ladder
  (:mod:`repro.stream.degrade`) with the reason attached.

Clean-stream guarantee: on an in-order, complete, uncorrupted stream
the runtime's model forecasts are **bit-identical** to the offline
``Trainer.predict_scaled`` on ``build_samples`` at the same index —
pinned by ``tests/stream/test_runtime.py`` and enforced in CI by
``benchmarks/bench_stream_robustness.py``.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.metrics import rmse
from repro.serve.server import ForecastServer
from repro.stream import adapt as adaptation
from repro.stream.adapt import AdaptationConfig, AdaptationError, warm_retrain
from repro.stream.degrade import StreamingHistoricalAverage
from repro.stream.drift import DriftSentinel
from repro.stream.ingest import StreamIngestor
from repro.stream.ticks import Tick

__all__ = ["ForecastResult", "StreamConfig", "StreamRuntime"]

# Audit log bound (same discipline as the quarantine).
_MAX_FAILURE_RECORDS = 64

#: Rolling raw-frame window the warm retrain fits on.
HISTORY = 512
#: Ticks between retries after a failed adaptation.
ADAPT_RETRY = 8
# Post-swap probation: the next PROBATION_TICKS scored errors must
# average within RECOVERY_FACTOR x the pre-drift baseline, else another
# adaptation round fires — up to MAX_ADAPT_ROUNDS per drift event.  One
# bounded retrain often under-corrects on a window still dominated by
# the old regime; probation iterates until the held-out error
# statistics actually recover.
RECOVERY_FACTOR = 1.2
PROBATION_TICKS = 10
MAX_ADAPT_ROUNDS = 3


@dataclass
class StreamConfig:
    """Streaming runtime knobs (docs/streaming.md)."""

    auto_adapt: bool = True     # retrain + swap on confirmed drift
    adaptation: AdaptationConfig = field(default_factory=AdaptationConfig)


@dataclass
class ForecastResult:
    """One answered forecast, with provenance.

    ``source`` is the ladder rung that answered: ``"model"``,
    ``"historical_average"``, ``"persistence"``, or ``"zeros"``.
    ``reason`` is ``None`` for a healthy model answer, else why the
    ladder was used.  ``imputed`` counts carry-forward frames per
    sub-series in the window the forecast was built on (model answers
    only).
    """

    index: int
    flows: np.ndarray
    source: str
    reason: str | None = None
    staleness: int = 0
    generation: int = 0
    imputed: dict = None

    @property
    def degraded(self):
        """Whether the answer came from the fallback ladder."""
        return self.source != "model"


class StreamRuntime:
    """Disruption-tolerant streaming forecasts over one flow stream.

    Parameters
    ----------
    model:
        The offline-trained serving model (the repo's forecaster
        protocol).
    scaler:
        The fitted :class:`~repro.data.scaler.MinMaxScaler` from
        offline training; adaptation widens it in place.
    periodicity, frame_shape, samples_per_day:
        Stream geometry — must match what the model was trained with.
    config:
        A :class:`StreamConfig`; defaults apply when omitted.
    model_factory:
        Zero-argument callable building a fresh, architecture-identical
        model; required for warm re-training (``auto_adapt``).
    checkpoint_dir:
        Where retrain checkpoints are written before the hot swap;
        required for warm re-training.
    """

    def __init__(self, model, scaler, periodicity, frame_shape,
                 samples_per_day, config: StreamConfig = None,
                 model_factory=None, checkpoint_dir=None):
        self.config = config if config is not None else StreamConfig()
        self.scaler = scaler
        self.periodicity = periodicity
        self.frame_shape = tuple(int(s) for s in frame_shape)
        self.model_factory = model_factory
        self.checkpoint_dir = checkpoint_dir
        self.server = ForecastServer(
            model, scaler=scaler, periodicity=periodicity,
            frame_shape=frame_shape)
        self.ingestor = StreamIngestor(frame_shape)
        self.history = deque(maxlen=HISTORY)
        self.drift = DriftSentinel()
        self.hist_avg = StreamingHistoricalAverage(samples_per_day,
                                                   frame_shape)
        # Why the model's answers are currently suspect (drift
        # confirmed, retrain in flight, swap failed, operator hold), or
        # None; while set, forecasts come from the fallback ladder.
        self._degraded_reason = None
        self._last_model_forecast = None  # (index, flows) awaiting truth
        self._adapt_cooldown = 0
        # Probation state: the pre-drift error level to recover to,
        # the post-swap errors collected so far, and how many
        # adaptation rounds this drift event has spent.
        self._recovery_target = None
        self._probation_errors = None
        self._adapt_rounds = 0
        self.masked_cells = 0
        self.retrains = 0
        self.retrain_s = 0.0  # wall time of every adapt(), failed or not
        self.retrain_failures = deque(maxlen=_MAX_FAILURE_RECORDS)
        self.fallbacks = {}  # source -> count
        # Newest confirmed-drift indices; the total is the sentinel's.
        self.drift_events = deque(maxlen=_MAX_FAILURE_RECORDS)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Start the serving stack; returns ``self``."""
        self.server.start()
        return self

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def close(self):
        """Drain and stop the serving stack."""
        self.server.close()

    def warm_start(self, flows):
        """Seed the windows from stored history before going live.

        ``flows`` is the raw ``(T, 2, H, W)`` tail the model trained
        on; interval ``i`` of the stream clock is ``flows[i]``.  Must
        be called before any tick is ingested.  Warm-start frames go
        straight into the server's cache, so they do not age the
        weights (:attr:`ForecastServer.staleness_ticks` stays 0 — the
        model has already seen them).
        """
        if self.server.cache.count or self.ingestor.next_index:
            raise RuntimeError("warm_start must precede any ingestion")
        flows = np.asarray(flows, dtype=np.float64)
        for index in range(len(flows)):
            frame = flows[index]
            self.server.cache.push(frame)
            self.history.append(frame.copy())
            self.hist_avg.update(index, frame)
        self.ingestor = StreamIngestor(self.frame_shape,
                                       start_index=len(flows))
        return self

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, tick: Tick):
        """Feed one arrival; applies every interval it releases.

        Returns the list of applied ``("tick"|"gap", index)`` pairs (a
        quarantined arrival applies nothing).
        """
        applied = []
        for kind, index, frame in self.ingestor.offer(tick):
            self._apply(kind, index, frame)
            applied.append((kind, index))
        return applied

    def flush(self):
        """Apply everything still pending in the ingestor."""
        applied = []
        for kind, index, frame in self.ingestor.flush():
            self._apply(kind, index, frame)
            applied.append((kind, index))
        return applied

    def _apply(self, kind, index, frame):
        """Advance the stream clock by one ordered interval."""
        if kind == "gap":
            self.server.push_gap()
            self.history.append(self.server.cache.last_frame)
            # Climatology tracks *observations* only: a carry-forward
            # fill teaches it nothing.
        else:
            frame = self._mask_fill(frame)
            self._score(index, frame)
            self.server.push_tick(frame)
            self.history.append(frame.copy())
            self.hist_avg.update(index, frame)
        if self._adapt_cooldown > 0:
            self._adapt_cooldown -= 1
            if (self._adapt_cooldown == 0 and self.config.auto_adapt
                    and self._degraded_reason is not None):
                self.adapt()

    def _mask_fill(self, frame):
        """Fill missing sensor cells (NaN) with their last known value."""
        mask = np.isnan(frame)
        if not mask.any():
            return frame
        self.masked_cells += int(mask.sum())
        base = self.server.cache.last_frame
        if base is None:
            base = np.zeros(self.frame_shape)
        return np.where(mask, base, frame)

    def _score(self, index, truth):
        """Feed the drift sentinel once truth arrives for a forecast."""
        if (self._last_model_forecast is None
                or self._last_model_forecast[0] != index):
            return
        _, predicted = self._last_model_forecast
        self._last_model_forecast = None
        error = rmse(predicted, truth)
        baseline_before = self.drift.baseline_mean if self.drift.armed else None
        state = self.drift.observe(error)
        if state != "drift" and self._probation_errors is not None:
            self._probation_errors.append(error)
            if len(self._probation_errors) >= PROBATION_TICKS:
                self._finish_probation()
        if state == "drift":
            self.drift_events.append(index)
            if self.config.auto_adapt:
                # The EMA baseline excludes spikes, so at confirmation
                # it still describes the pre-drift error level — the
                # target post-retrain probation must recover to.
                if baseline_before is not None:
                    self._recovery_target = RECOVERY_FACTOR * baseline_before
                self._probation_errors = None
                self._adapt_rounds = 0
                # Degrade now, retrain on the FRESH_TICKS-th tick
                # counting this one: retraining the instant drift is
                # confirmed would fit on a window that barely contains
                # the new regime.  The fallback ladder answers in the
                # meantime.
                self.mark_degraded(
                    f"drift confirmed at tick {index} "
                    f"(cusum {self.drift.cusum:.2f})")
                self._adapt_cooldown = adaptation.FRESH_TICKS
            # Without auto-adapt the model keeps serving (frozen arm):
            # the drift is recorded, nothing can fix it.
            self.drift.rearm()

    def _finish_probation(self):
        """Judge a completed post-swap probation window."""
        errors = self._probation_errors
        self._probation_errors = None
        mean_error = float(np.mean(errors))
        if (self._recovery_target is None
                or mean_error <= self._recovery_target
                or self._adapt_rounds >= MAX_ADAPT_ROUNDS):
            # Recovered (or out of rounds: accept what we have rather
            # than retraining forever on the same window).
            self._recovery_target = None
            return
        self.mark_degraded(
            f"recovery insufficient: post-swap error {mean_error:.3f} > "
            f"target {self._recovery_target:.3f} "
            f"(round {self._adapt_rounds}/{MAX_ADAPT_ROUNDS})")
        self._adapt_cooldown = adaptation.FRESH_TICKS

    # ------------------------------------------------------------------
    # Degraded mode
    # ------------------------------------------------------------------
    @property
    def degraded(self):
        """The active degradation reason, or ``None`` when healthy."""
        return self._degraded_reason

    def mark_degraded(self, reason):
        """Route forecasts to the fallback ladder (e.g. confirmed drift).

        The server keeps its weights and keeps answering direct
        requests; ``reason`` is attached to every ladder answer and
        shown in :meth:`snapshot`.
        """
        self._degraded_reason = str(reason)

    def clear_degraded(self):
        """Return forecasts to the model (e.g. after a successful swap)."""
        self._degraded_reason = None

    # ------------------------------------------------------------------
    # Forecasting
    # ------------------------------------------------------------------
    def forecast(self):
        """Answer for the next unobserved interval, from the ladder.

        Never raises on a degraded stack: the answer always comes from
        the best rung currently able to answer, with provenance.
        """
        cache = self.server.cache
        index = cache.next_index
        reason = None
        if not cache.ready:
            reason = "warmup: windows not yet populated"
        elif self._degraded_reason is not None:
            reason = self._degraded_reason
        if reason is None:
            prediction, index, generation, imputed = \
                self.server.forecast_tick()
            flows = self.scaler.inverse_transform(prediction)
            self._last_model_forecast = (index, flows)
            return ForecastResult(
                index=index, flows=flows, source="model",
                staleness=self.server.staleness_ticks,
                generation=generation, imputed=imputed)
        return self._fallback(index, reason)

    def _fallback(self, index, reason):
        """Walk the degradation ladder below the model."""
        cache = self.server.cache
        if self.hist_avg.ready(index):
            source, flows = "historical_average", self.hist_avg.predict(index)
        elif cache.count > cache.gap_count:
            # Persistence: the last observed frame (a gap fill carries
            # it forward, so the newest cached frame is that frame).
            source, flows = "persistence", cache.last_frame
        else:
            source, flows = "zeros", np.zeros(self.frame_shape)
        self.fallbacks[source] = self.fallbacks.get(source, 0) + 1
        return ForecastResult(
            index=index, flows=flows, source=source, reason=reason,
            staleness=self.server.staleness_ticks,
            generation=self.server.generation)

    # ------------------------------------------------------------------
    # Adaptation
    # ------------------------------------------------------------------
    def adapt(self):
        """Warm-retrain on the rolling window and hot-swap on success.

        Returns ``True`` on a completed swap.  Every failure mode —
        missing factory/checkpoint dir, short history, divergence,
        failed validation gate, corrupt checkpoint, swap error — lands
        in :attr:`retrain_failures`, leaves the runtime degraded, and
        schedules a retry; it never propagates to the caller.
        """
        started = perf_counter()
        try:
            if self.model_factory is None or self.checkpoint_dir is None:
                raise AdaptationError(
                    "adaptation needs model_factory and checkpoint_dir")
            self.mark_degraded("retraining")
            path = os.path.join(self.checkpoint_dir, "stream-retrain.npz")
            path, _history, candidate_rmse, serving_rmse = warm_retrain(
                self.server.model, self.model_factory,
                np.asarray(self.history), self.scaler, self.periodicity,
                config=self.config.adaptation, checkpoint_path=path)
            try:
                self.server.load_checkpoint(path)
            except Exception as error:
                raise AdaptationError(f"hot swap failed: {error}") from error
        except AdaptationError as error:
            self.retrain_failures.append(str(error))
            self.mark_degraded(f"retrain failed: {error}")
            self._adapt_cooldown = ADAPT_RETRY
            return False
        finally:
            self.retrain_s += perf_counter() - started
        self.retrains += 1
        self._adapt_rounds += 1
        self.clear_degraded()
        self.drift.rearm()
        self._last_model_forecast = None
        # Open the probation window: the next scored errors decide
        # whether this round actually recovered the error level.
        if self._recovery_target is not None:
            self._probation_errors = []
        return True

    # ------------------------------------------------------------------
    def snapshot(self):
        """JSON-able runtime state across every subsystem; the window
        is ``["serve"]["cache"]``."""
        return {
            "ingest": self.ingestor.snapshot(),
            "drift": self.drift.snapshot(),
            "drift_events": list(self.drift_events),
            "degraded": self._degraded_reason,
            "serve": self.server.snapshot(),
            "history_len": len(self.history),
            "masked_cells": self.masked_cells,
            "fallbacks": dict(self.fallbacks),
            "retrains": self.retrains,
            "retrain_s": self.retrain_s,
            "retrain_failures": list(self.retrain_failures),
        }
