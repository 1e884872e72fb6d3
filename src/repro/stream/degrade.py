"""Graceful-degradation forecasters for the streaming runtime.

When the model is stale, mid-retrain, or a swap just failed, the
server must still answer — with an honest, cheaper estimate rather
than a silent error or a suspect neural forecast.
:class:`StreamingHistoricalAverage` is the streaming counterpart of
:mod:`repro.baselines.naive`'s historical average: the batch baseline
re-slices a full offline history per call, while this keeps O(1) state
per tick and never looks at more than the current frame.

The ladder (:class:`~repro.stream.runtime.StreamRuntime` walks it top
to bottom, serving the first ready rung):

1. the neural model — healthy weights, warm windows;
2. :class:`StreamingHistoricalAverage` — per time-of-day-slot EMA of
   observed frames: knows the diurnal shape, blind to this morning;
3. persistence — the last observed frame, read from the server's
   window cache: blind to everything but one tick old at most;
4. zeros — only before the very first observation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StreamingHistoricalAverage"]


class StreamingHistoricalAverage:
    """Per-slot EMA of observed frames (time-of-day climatology).

    ``update`` folds an observed frame into the EMA for its
    time-of-day slot (``index % samples_per_day``); ``predict``
    returns that slot's EMA.  Gap fills must *not* be folded — a
    carried-forward frame would teach the climatology that missing
    intervals look like their predecessors.
    """

    def __init__(self, samples_per_day, frame_shape, beta=0.85):
        if samples_per_day < 1:
            raise ValueError(
                f"samples_per_day must be >= 1; got {samples_per_day}")
        if not 0.0 <= beta < 1.0:
            raise ValueError(f"beta must be in [0, 1); got {beta}")
        self.samples_per_day = int(samples_per_day)
        self.frame_shape = tuple(int(s) for s in frame_shape)
        self.beta = float(beta)
        self._slots = np.zeros((self.samples_per_day,) + self.frame_shape)
        self._seen = np.zeros(self.samples_per_day, dtype=np.int64)

    def update(self, index, frame):
        """Fold one *observed* frame into its time-of-day slot."""
        slot = int(index) % self.samples_per_day
        frame = np.asarray(frame, dtype=np.float64)
        if self._seen[slot] == 0:
            self._slots[slot] = frame
        else:
            self._slots[slot] = (self.beta * self._slots[slot]
                                 + (1.0 - self.beta) * frame)
        self._seen[slot] += 1
        return self

    def ready(self, index):
        """Whether the slot for ``index`` has ever been observed."""
        return bool(self._seen[int(index) % self.samples_per_day] > 0)

    def predict(self, index):
        """Climatology forecast for interval ``index`` (copy)."""
        slot = int(index) % self.samples_per_day
        if self._seen[slot] == 0:
            raise ValueError(
                f"no observations yet for time-of-day slot {slot}")
        return self._slots[slot].copy()
