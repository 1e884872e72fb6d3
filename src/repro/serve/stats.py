"""Serving instrumentation: per-request latency + per-batch telemetry.

:class:`LatencyStats` accumulates one sample per served request (queue
wait + forward + dispatch) and one record per micro-batched forward.
Counts, means, and maxima are exact running aggregates; percentiles are
computed over fixed-size **reservoir samples** (Vitter's Algorithm R
with a seeded generator, so two identical runs produce identical
snapshots).  The reservoirs bound the memory of an arbitrarily long
serving run — the PR-8 bounded-buffer discipline — at a cost of
sampling noise on the percentiles only; everything else in
:meth:`snapshot` stays exact.

Thread safety: ``record_*`` is called from the batcher thread while
``snapshot()`` may be called from any client thread, so mutation happens
under a lock.  The recording path is a few appends/float adds — cheap
enough to sit on the serving hot path — and ``snapshot()`` holds the
lock only long enough to *copy* the bounded reservoirs; the
``np.percentile`` work runs on the copies after the lock is released,
so a recording thread never stalls behind a snapshot.

The trailing window of queue waits (:meth:`recent_queue_wait_ms`) feeds
the :class:`~repro.serve.autoscale.AutoScaler`: unlike the whole-run
reservoir it must reflect *current* pressure, so it is a bounded deque
of the newest samples.
"""

from __future__ import annotations

import random
from collections import deque
from time import perf_counter

import numpy as np

from repro.inspect import sanitizer

__all__ = ["LatencyStats"]

#: Reservoir capacity: large enough that p99 over a full benchmark run
#: is stable, small enough that a week of serving holds ~100 KiB.
_RESERVOIR_CAPACITY = 4096

#: Trailing queue-wait window for load-pressure telemetry.
_RECENT_WINDOW = 256


class _Reservoir:
    """Fixed-size uniform sample of an unbounded stream (Algorithm R).

    Deterministic: the replacement positions come from a private seeded
    generator, so identical input streams yield identical reservoirs.
    """

    __slots__ = ("capacity", "values", "seen", "_rng")

    def __init__(self, capacity, seed):
        self.capacity = int(capacity)
        self.values = []
        self.seen = 0
        self._rng = random.Random(seed)

    def add(self, value):
        self.seen += 1
        if len(self.values) < self.capacity:
            self.values.append(value)
            return
        slot = self._rng.randrange(self.seen)
        if slot < self.capacity:
            self.values[slot] = value


class LatencyStats:
    """Accumulates request latencies and micro-batch shapes, bounded."""

    def __init__(self, reservoir_capacity=_RESERVOIR_CAPACITY, seed=0):
        self._lock = sanitizer.create_lock("LatencyStats._lock")
        # Percentile reservoirs (bounded; seeds offset so the two
        # streams do not share replacement patterns).
        self._latencies = _Reservoir(reservoir_capacity, seed)
        self._queue_waits = _Reservoir(reservoir_capacity, seed + 1)
        # Exact running aggregates.
        self._forward_s = 0.0     # cumulative model time across batches
        self._started = perf_counter()
        self._requests = 0
        self._samples = 0
        self._batches = 0
        self._latency_sum = 0.0
        self._latency_max = 0.0
        self._batch_max = 0
        # Trailing queue waits for the autoscaler's pressure signal.
        self._recent_waits = deque(maxlen=_RECENT_WINDOW)

    # -- recording (batcher thread) ------------------------------------
    def record_batch(self, batch_requests, batch_samples, forward_seconds,
                     queue_waits, latencies):
        """One micro-batched forward: shape, model time, per-request times."""
        with self._lock:
            self._batches += 1
            self._batch_max = max(self._batch_max, int(batch_requests))
            self._forward_s += forward_seconds
            self._requests += batch_requests
            self._samples += batch_samples
            for wait in queue_waits:
                self._queue_waits.add(wait)
                self._recent_waits.append(wait)
            for latency in latencies:
                self._latencies.add(latency)
                self._latency_sum += latency
                if latency > self._latency_max:
                    self._latency_max = latency

    def reset_clock(self):
        """Restart the wall-clock window ``snapshot()`` derives qps from."""
        with self._lock:
            self._started = perf_counter()

    # -- reading -------------------------------------------------------
    def recent_queue_wait_ms(self):
        """Mean queue wait over the trailing window, in ms (None if empty).

        This is the autoscaler's pressure signal: unlike the whole-run
        percentiles it tracks *current* load, forgetting history beyond
        the last ``_RECENT_WINDOW`` requests.
        """
        with self._lock:
            if not self._recent_waits:
                return None
            return 1e3 * sum(self._recent_waits) / len(self._recent_waits)

    def snapshot(self):
        """JSON-able summary: percentiles, throughput, batching shape.

        The lock is held only to copy the bounded reservoirs and read
        the counters; percentile computation happens on the copies.
        """
        with self._lock:
            latencies = list(self._latencies.values)
            waits = list(self._queue_waits.values)
            elapsed = perf_counter() - self._started
            requests = self._requests
            samples = self._samples
            batches = self._batches
            forward_s = self._forward_s
            latency_sum = self._latency_sum
            latency_max = self._latency_max
            batch_max = self._batch_max
        if not latencies:
            return {
                "requests": 0, "samples": 0, "batches": 0,
                "elapsed_s": elapsed, "queries_per_sec": 0.0,
                "latency_ms": None, "queue_wait_ms": None,
                "batch_size": None, "forward_s": forward_s,
            }
        latencies = np.asarray(latencies, dtype=float)
        waits = np.asarray(waits, dtype=float)
        return {
            "requests": int(requests),
            "samples": int(samples),
            "batches": int(batches),
            "elapsed_s": float(elapsed),
            "queries_per_sec": float(requests / max(elapsed, 1e-9)),
            "latency_ms": {
                "p50": float(np.percentile(latencies, 50) * 1e3),
                "p99": float(np.percentile(latencies, 99) * 1e3),
                "max": float(latency_max * 1e3),
                "mean": float(latency_sum / requests * 1e3),
            },
            "queue_wait_ms": {
                "p50": float(np.percentile(waits, 50) * 1e3),
                "p99": float(np.percentile(waits, 99) * 1e3),
            },
            "batch_size": {
                "mean": float(requests / batches),
                "max": int(batch_max),
            },
            "forward_s": float(forward_s),
        }
