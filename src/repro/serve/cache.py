"""Incremental closeness/period/trend window assembly for serving.

Offline evaluation assembles samples with
:func:`repro.data.windows.build_samples`, which re-slices the *entire*
flow history for every target index.  A server cannot afford that: the
stream is unbounded, and each forecast request needs only a bounded
window of the past.  :class:`WindowCache` maintains exactly that window:

- a **frame ring** holding the last ``periodicity.min_index`` observed
  grid frames — the deepest lag any of the three sub-series reaches;
- a **rolling closeness tensor** updated in place on every tick (shift
  left, write the newest frame last), so the highest-rate sub-series
  costs one frame copy per tick instead of a re-slice per request;
- **period/trend gathers** resolved against the ring with precomputed
  lag offsets when a sample is requested (each selected frame moves by
  one tick per tick, so unlike closeness these cannot be maintained by
  shifting — but the gather touches ``L_p + L_t`` small frames, never
  the full history).

Frames are kept as they were pushed, in the dtype of the first frame:
the cache never scales or casts.  A :class:`~repro.serve.server.
ForecastServer` with a scaler therefore caches raw flows and scales
each sample when a forecast takes it — min-max scaling is elementwise
with global bounds, so slice-then-scale equals scale-then-slice
bitwise, and raw windows stay valid when adaptation widens the bounds.

The assembled windows are **bit-identical** to ``build_samples`` run
from scratch over the full history at the same target index — the cache
is an optimization, not an approximation — which
``tests/serve/test_window_cache.py`` pins across period and trend
boundaries.

**Gap contract** (streaming ingestion, ``docs/streaming.md``): a
missing interval must still advance the stream clock, otherwise every
later period/trend lag silently shifts off its calendar alignment.
:meth:`WindowCache.push_gap` records one unobserved interval by
carrying the last observed frame forward (zeros before the first
frame) and flagging the slot as imputed; :meth:`imputed_counts`
reports how many imputed frames the *next* sample would contain per
sub-series, so callers can degrade or annotate forecasts built on
filled history.  The carried-forward values are exactly what
``build_samples`` would see on a history whose gaps were filled the
same way — the contract changes bookkeeping, never the numerics.

**Thread safety**: one lock covers every write (:meth:`push`,
:meth:`push_gap`) and every read (:meth:`sample`,
:meth:`imputed_counts`, :attr:`last_frame`, the counters), so a sample
taken while another thread pushes holds the windows of one tick, never
a closeness window from the next tick under the previous index.

One cache covers every grid cell at once (frames are whole ``(2, H, W)``
grids); per-cell forecasts slice the shared batched forward instead of
assembling per-cell windows.
"""

from __future__ import annotations

import numpy as np

from repro.data.periodicity import MultiPeriodicity
from repro.data.windows import SampleBatch
from repro.inspect import sanitizer

__all__ = ["WindowCache"]


class WindowCache:
    """Rolling multi-periodic window state for one flow stream.

    Parameters
    ----------
    periodicity:
        The :class:`~repro.data.periodicity.MultiPeriodicity` windowing
        configuration (shared with training — the model expects the
        same sub-series lengths it was fit with).
    frame_shape:
        Shape of one observed frame, ``(2, H, W)`` for grid flows.
    """

    def __init__(self, periodicity: MultiPeriodicity, frame_shape):
        self.periodicity = periodicity
        self.frame_shape = tuple(int(s) for s in frame_shape)
        self.capacity = int(periodicity.min_index)
        # Lag offsets are a pure function of the periodicity config, so
        # build them once here instead of per sample()/imputed_counts()
        # call; the bit-identity tests against build_samples pin that
        # this changes nothing numerically.
        self.period_lags = np.arange(
            periodicity.len_period, 0, -1) * periodicity.period_lag
        self.trend_lags = np.arange(
            periodicity.len_trend, 0, -1) * periodicity.trend_lag
        #: Optional callback fired after every clock advance
        #: (:meth:`push` and :meth:`push_gap`), outside the lock, with
        #: the new frame count.  The server hangs result-cache
        #: invalidation here: a new tick means a new target index, so
        #: memoized forecasts for older indices are dead weight.
        self.on_advance = None
        self._lock = sanitizer.create_lock("WindowCache._lock")
        self._ring = None       # (capacity,) + frame_shape
        self._closeness = None  # (L_c,) + frame_shape, rolling
        self._count = 0         # total frames observed
        # Gap bookkeeping: which ring slots hold carry-forward fills
        # rather than observations, plus the rolling closeness flags.
        self._imputed_ring = None       # (capacity,) bool
        self._closeness_imputed = None  # (L_c,) bool
        self._gap_count = 0

    # ------------------------------------------------------------------
    @property
    def count(self):
        """Total ticks observed; also the next (forecast) target index."""
        with self._lock:
            return self._count

    @property
    def next_index(self):
        """The target interval the next :meth:`sample` forecasts."""
        return self.count

    @property
    def ready(self):
        """True once every sub-series window is fully populated."""
        return self.count >= self.capacity

    @property
    def gap_count(self):
        """Total intervals recorded via :meth:`push_gap`."""
        with self._lock:
            return self._gap_count

    @property
    def last_frame(self):
        """Copy of the most recent frame, or ``None`` before any push."""
        with self._lock:
            if self._count == 0:
                return None
            return self._ring[(self._count - 1) % self.capacity].copy()

    def _allocate(self, dtype):
        self._ring = np.zeros((self.capacity,) + self.frame_shape,
                              dtype=dtype)
        self._closeness = np.zeros(
            (self.periodicity.len_closeness,) + self.frame_shape,
            dtype=dtype)
        self._imputed_ring = np.zeros(self.capacity, dtype=bool)
        self._closeness_imputed = np.zeros(
            self.periodicity.len_closeness, dtype=bool)

    # ------------------------------------------------------------------
    def push(self, frame):
        """Observe one tick; returns the count of frames seen so far."""
        frame = np.asarray(frame)
        if frame.shape != self.frame_shape:
            raise ValueError(
                f"frame shape {frame.shape} != expected {self.frame_shape}")
        with self._lock:
            if self._ring is None:
                self._allocate(frame.dtype)
            count = self._advance(frame, observed=True)
        if self.on_advance is not None:
            self.on_advance(count)
        return count

    def push_gap(self):
        """Record one unobserved interval (the gap contract).

        The stream clock advances by one tick — keeping every later
        period/trend lag calendar-aligned — and the last observed frame
        is carried forward as the fill value (zeros when the gap
        precedes any observation).  The slot is flagged imputed.
        """
        with self._lock:
            if self._ring is None:
                self._allocate(np.float64)
                fill = np.zeros(self.frame_shape, dtype=np.float64)
            else:
                fill = self._ring[(self._count - 1) % self.capacity]
            self._gap_count += 1
            count = self._advance(fill, observed=False)
        if self.on_advance is not None:
            self.on_advance(count)
        return count

    def _advance(self, frame, observed):
        """Write one tick into the windows (caller holds the lock)."""
        self._ring[self._count % self.capacity] = frame
        self._imputed_ring[self._count % self.capacity] = not observed
        # Rolling closeness: shift one slot left, newest frame last —
        # matches Eq. (3)'s [i - L_c, ..., i - 1] ordering.
        self._closeness[:-1] = self._closeness[1:]
        self._closeness[-1] = frame
        self._closeness_imputed[:-1] = self._closeness_imputed[1:]
        self._closeness_imputed[-1] = not observed
        self._count += 1
        return self._count

    # ------------------------------------------------------------------
    def _require_ready(self):
        if self._count < self.capacity:
            raise ValueError(
                f"window not ready: {self._count} of {self.capacity} "
                "warm-up ticks observed")

    def _gather(self, lags):
        """Stack the ring frames at absolute indices ``next_index - lag``."""
        positions = (self._count - lags) % self.capacity
        return self._ring[positions]

    def imputed_counts(self):
        """Imputed-frame counts the *next* sample would contain.

        Returns ``{"closeness": n_c, "period": n_p, "trend": n_t}`` —
        how many of each sub-series' frames are carry-forward fills
        rather than observations.  All zeros on a clean stream.
        """
        with self._lock:
            self._require_ready()
            return {
                "closeness": int(self._closeness_imputed.sum()),
                "period": int(self._imputed_ring[
                    (self._count - self.period_lags) % self.capacity].sum()),
                "trend": int(self._imputed_ring[
                    (self._count - self.trend_lags) % self.capacity].sum()),
            }

    def sample(self):
        """The size-1 :class:`SampleBatch` forecasting :attr:`next_index`.

        ``closeness``/``period``/``trend`` are exactly what
        ``build_samples`` would produce for this target index from the
        full history.  ``target`` is a zero placeholder — the target is
        the unobserved interval being forecast — and ``indices`` carries
        the target index.  The arrays are copies; callers may hold them
        across subsequent :meth:`push` calls.
        """
        with self._lock:
            self._require_ready()
            return SampleBatch(
                closeness=self._closeness.copy()[None],
                period=self._gather(self.period_lags)[None],
                trend=self._gather(self.trend_lags)[None],
                target=np.zeros((1,) + self.frame_shape,
                                dtype=self._ring.dtype),
                indices=np.array([self._count]),
            )
