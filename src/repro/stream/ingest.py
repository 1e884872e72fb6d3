"""Watermark-ordered tick ingestion with explicit fault semantics.

The ingestor turns an arbitrary arrival order into the strictly
ordered, gap-annotated sequence the rolling windows need:

- **Reordering.** Ticks may arrive up to ``watermark`` intervals out
  of order.  Arrivals park in a bounded pending buffer and are emitted
  in index order as soon as they are contiguous with the stream clock.
- **Gap declaration.** An interval is declared *missing* once a tick
  ``watermark`` or more intervals ahead of it has arrived — the stream
  has moved on, so waiting longer would stall every later forecast.
  The caller receives an explicit ``("gap", index)`` event and decides
  the fill policy (:meth:`repro.serve.cache.WindowCache.push_gap`).
- **Quarantine.** Ticks that can never be used — wrong shape, ``Inf``
  or negative flows, duplicate or out-of-range indices, or arrivals
  for intervals already emitted/declared — are refused with a recorded
  :class:`~repro.stream.ticks.QuarantineRecord` rather than silently
  dropped or, worse, ingested.

``NaN`` cells are *not* corruption: they mean a sensor missed one
reading, and pass through with the frame for cell-level masking by the
runtime (docs/streaming.md).  A frame that is entirely ``NaN`` carries
no observation at all and is quarantined.

The pending buffer cannot grow past ``watermark - 1`` entries: any
arrival that far ahead forces the intervening gaps to be declared
first.  The quarantine log itself is a ``deque(maxlen=...)`` — every
buffer in this package is bounded (see the ``bounded-buffer`` lint
rule in docs/static_analysis.md).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.stream.ticks import QuarantineRecord, Tick

__all__ = ["StreamIngestor"]

# Audit-log bound: a hostile feed can quarantine every tick, and the
# log must not become the unbounded buffer it exists to prevent.
_MAX_QUARANTINE_RECORDS = 256


class StreamIngestor:
    """Reorder, gap-declare, and quarantine a raw tick feed.

    Parameters
    ----------
    frame_shape:
        Expected frame shape, ``(2, H, W)``.
    watermark:
        How many intervals out of order a tick may arrive and still be
        accepted.  ``1`` means strictly in-order (any hole is declared
        a gap by the very next arrival).
    start_index:
        The stream clock's first interval (0 for a fresh stream, or
        the first live interval when warm-starting from stored
        history).
    """

    def __init__(self, frame_shape, watermark=4, start_index=0):
        if watermark < 1:
            raise ValueError(f"watermark must be >= 1; got {watermark}")
        self.frame_shape = tuple(int(s) for s in frame_shape)
        self.watermark = int(watermark)
        self._next = int(start_index)
        self._pending = {}  # index -> frame; bounded by the watermark
        self.quarantine = deque(maxlen=_MAX_QUARANTINE_RECORDS)
        self.counts = {"emitted": 0, "gaps": 0, "quarantined": 0,
                       "reordered": 0}

    # ------------------------------------------------------------------
    @property
    def next_index(self):
        """The stream clock: the next interval to be emitted."""
        return self._next

    @property
    def pending_count(self):
        """Parked out-of-order ticks (always ``< watermark``)."""
        return len(self._pending)

    def _refuse(self, index, reason, detail=""):
        record = QuarantineRecord(index=int(index), reason=reason,
                                  detail=detail)
        self.quarantine.append(record)
        self.counts["quarantined"] += 1
        return record

    def _validate(self, tick: Tick):
        """Return a quarantine record, or ``None`` when the tick is usable."""
        index = int(tick.index)
        if index < 0:
            return self._refuse(index, "bad_index", "negative interval index")
        if index < self._next:
            return self._refuse(
                index, "late",
                "interval already emitted or declared missing; "
                f"stream clock is at {self._next}")
        if index in self._pending:
            return self._refuse(index, "duplicate",
                                "a tick for this interval is already pending")
        frame = np.asarray(tick.frame)
        if frame.shape != self.frame_shape:
            return self._refuse(
                index, "bad_shape",
                f"frame shape {frame.shape} != expected {self.frame_shape}")
        if np.isinf(frame).any():
            return self._refuse(index, "corrupt",
                                f"{int(np.isinf(frame).sum())} Inf cell(s)")
        finite = np.isfinite(frame)
        if not finite.any():
            return self._refuse(index, "corrupt",
                                "every cell is NaN: no observation")
        if (frame[finite] < 0).any():
            return self._refuse(
                index, "corrupt",
                f"{int((frame[finite] < 0).sum())} negative flow cell(s)")
        return None

    # ------------------------------------------------------------------
    def offer(self, tick: Tick):
        """Ingest one arrival; returns the ordered events it releases.

        Each event is ``("tick", index, frame)`` for an observation or
        ``("gap", index, None)`` for a declared-missing interval, in
        strictly increasing index order.  A quarantined arrival
        releases nothing (its record lands in :attr:`quarantine`).
        """
        if self._validate(tick) is not None:
            return []
        index = int(tick.index)
        if index != self._next:
            self.counts["reordered"] += 1
        self._pending[index] = np.asarray(tick.frame, dtype=np.float64)
        return self._drain()

    def flush(self):
        """End of stream: emit everything pending, declaring interior gaps."""
        events = []
        while self._pending:
            events.extend(self._drain(force=True))
        return events

    def _drain(self, force=False):
        """Emit every interval the watermark (or ``force``) allows."""
        events = []
        while True:
            if self._next in self._pending:
                frame = self._pending.pop(self._next)
                events.append(("tick", self._next, frame))
                self.counts["emitted"] += 1
                self._next += 1
                continue
            if self._pending and (
                    force
                    or max(self._pending) - self._next >= self.watermark):
                # The stream has moved `watermark` intervals past this
                # hole: declare it missing and advance the clock.
                events.append(("gap", self._next, None))
                self.counts["gaps"] += 1
                self._next += 1
                continue
            return events

    # ------------------------------------------------------------------
    def snapshot(self):
        """JSON-able ingestion counters and the quarantine audit log."""
        return {
            "next_index": self._next,
            "pending": len(self._pending),
            "watermark": self.watermark,
            "counts": dict(self.counts),
            "quarantine": [record.as_dict() for record in self.quarantine],
        }
