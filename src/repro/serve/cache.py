"""Incremental closeness/period/trend window assembly for serving.

Offline evaluation assembles samples with
:func:`repro.data.windows.build_samples`, which re-slices the *entire*
flow history for every target index.  A server cannot afford that: the
stream is unbounded, and each forecast request needs only a bounded
window of the past.  :class:`WindowCache` maintains exactly that window:

- a **frame ring** holding the last ``periodicity.min_index`` observed
  grid frames — the deepest lag any of the three sub-series reaches,
  and never less than ``L_c``;
- **closeness/period/trend gathers** resolved against the ring with
  precomputed lag offsets when a sample is requested, so a tick costs
  one frame write and a sample touches ``L_c + L_p + L_t`` small
  frames, never the full history.

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
frame) and flagging the slot as imputed; :meth:`sample` returns, with
the windows, how many imputed frames they contain per sub-series, so
callers can degrade or annotate forecasts built on filled history.
The carried-forward values are exactly what ``build_samples`` would
see on a history whose gaps were filled the same way — the contract
changes bookkeeping, never the numerics.

**Thread safety**: one lock covers every write (:meth:`push`,
:meth:`push_gap`) and every read (:meth:`sample`, :meth:`snapshot`,
:attr:`last_frame`, the counters), so a sample taken while another
thread pushes holds the windows and imputed counts of one tick, never
a frame of the next tick under the previous index.

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
        # Lag offsets of the closeness, period and trend frames, each
        # oldest first (Eqs. 3-5), built once as one array so a sample
        # is one gather; the build_samples bit-identity tests pin it.
        p = periodicity
        self._lags = np.concatenate([
            np.arange(p.len_closeness, 0, -1),
            np.arange(p.len_period, 0, -1) * p.period_lag,
            np.arange(p.len_trend, 0, -1) * p.trend_lag])
        mid = p.len_closeness + p.len_period
        self._spans = {"closeness": slice(0, p.len_closeness),
                       "period": slice(p.len_closeness, mid),
                       "trend": slice(mid, None)}
        self._lock = sanitizer.create_lock("WindowCache._lock")
        self._ring = None  # (capacity,) + frame_shape
        self._count = 0    # total frames observed
        # Gap bookkeeping: which ring slots hold carry-forward fills
        # rather than observations.
        self._imputed_ring = None  # (capacity,) bool
        self._gap_count = 0
        # The last sample built, as (count, batch, imputed): the window
        # at a count never changes, so every sample between two pushes
        # (each memo hit of a stream forecast) shares one build.
        self._sampled = None

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
        self._imputed_ring = np.zeros(self.capacity, dtype=bool)

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
            return self._advance(frame, observed=True)

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
            return self._advance(fill, observed=False)

    def _advance(self, frame, observed):
        """Write one tick into the ring (caller holds the lock)."""
        self._ring[self._count % self.capacity] = frame
        self._imputed_ring[self._count % self.capacity] = not observed
        self._count += 1
        return self._count

    # ------------------------------------------------------------------
    def _require_ready(self):
        if self._count < self.capacity:
            raise ValueError(
                f"window not ready: {self._count} of {self.capacity} "
                "warm-up ticks observed")

    def _positions(self):
        """Ring slots of every window frame for :attr:`next_index`."""
        return (self._count - self._lags) % self.capacity

    def _imputed_counts(self):
        """``{"closeness": n_c, "period": n_p, "trend": n_t}``: how many
        frames of each window for :attr:`next_index` are carry-forward
        fills (caller holds the lock)."""
        flags = self._imputed_ring[self._positions()]
        return {name: int(np.count_nonzero(flags[span]))
                for name, span in self._spans.items()}

    def sample(self):
        """``(batch, imputed)`` for :attr:`next_index`, under one lock.

        ``batch`` is the size-1 :class:`SampleBatch`: its
        ``closeness``/``period``/``trend`` are exactly what
        ``build_samples`` would produce for this target index from the
        full history, ``target`` is a zero placeholder (the target is
        the unobserved interval being forecast) and ``indices`` carries
        the target index.  ``imputed`` counts the carry-forward fills
        in those windows per sub-series — all zeros on a clean stream.
        The arrays never alias the ring, so callers may hold them across
        subsequent :meth:`push` calls; they are read-only because every
        sample at one count shares them.
        """
        with self._lock:
            sampled = self._sampled
            if sampled is None or sampled[0] != self._count:
                self._require_ready()
                frames = self._ring[self._positions()][None]
                target = np.zeros((1,) + self.frame_shape,
                                  dtype=self._ring.dtype)
                indices = np.array([self._count])
                for array in (frames, target, indices):
                    array.flags.writeable = False
                batch = SampleBatch(
                    **{name: frames[:, span]
                       for name, span in self._spans.items()},
                    target=target, indices=indices)
                sampled = self._sampled = (
                    self._count, batch, self._imputed_counts())
        _count, batch, imputed = sampled
        return batch, dict(imputed)

    def snapshot(self):
        """JSON-able ``count``, ``ready``, ``gap_count`` and ``imputed``
        (the counts :meth:`sample` would return, ``None`` until ready),
        under one lock."""
        with self._lock:
            ready = self._count >= self.capacity
            return {
                "count": self._count,
                "ready": ready,
                "gap_count": self._gap_count,
                "imputed": self._imputed_counts() if ready else None,
            }
