"""Load-adaptive replica autoscaling for the forecast server.

The replica pool makes capacity cheap to change: replicas alias ONE
shared parameter block, so adding a replica is a fork (no weight copy)
and removing one is a process stop — a scale event never touches
parameter state and therefore can never tear a generation
(:meth:`~repro.serve.pool.ReplicaPool.scale_to`).  What remains is the
*policy*: when is the pool under- or over-provisioned?

:class:`AutoScaler` answers from two serving-telemetry signals:

- **queue depth** — requests waiting in the micro-batcher right now
  (instantaneous backlog);
- **recent queue wait** — mean time recent requests spent queued
  (:meth:`~repro.serve.stats.LatencyStats.recent_queue_wait_ms`), the
  smoothed symptom of sustained undercapacity.

Either signal above its high threshold is *pressure*; both below their
low thresholds is *slack*.  Two guards keep the loop from flapping:

- **hysteresis** — a decision needs :data:`PATIENCE` *consecutive*
  pressure (or slack) observations; a single bursty sample scales
  nothing;
- **cooldown** — after any scale event the scaler sits out
  :data:`COOLDOWN_S` so the new capacity's effect shows up in the
  signals before the next decision.

Scaling moves one replica at a time within ``[min_replicas,
max_replicas]``.  Every decision is observable: scale events (with
their triggering signals) accumulate in :meth:`snapshot`'s bounded
event log, surfaced through ``ForecastServer.snapshot()["autoscaler"]``.

The policy is deliberately separated from the clock: :meth:`step` takes
one observation and maybe acts — tests drive it synchronously with
fabricated signals — while :meth:`start` merely runs ``step`` on a
daemon thread every :data:`INTERVAL_S`.
"""

from __future__ import annotations

import threading
from collections import deque
from time import perf_counter

from repro.inspect import sanitizer

__all__ = ["AutoScaler"]

#: Bounded scale-event log (telemetry, not an audit trail).
_EVENT_LOG = 64

#: Queued requests at or above this count are pressure.
HIGH_QUEUE_DEPTH = 8
#: Recent mean queue wait (ms) at or above this is pressure.
HIGH_WAIT_MS = 50.0
#: Recent mean queue wait (ms) at or below this, with an empty queue,
#: is slack.
LOW_WAIT_MS = 5.0
#: Consecutive pressured (or slack) observations before acting — the
#: hysteresis guard.
PATIENCE = 3
#: Seconds after a scale event during which no decision is taken.
COOLDOWN_S = 10.0
#: Background observation period of :meth:`AutoScaler.start`.
INTERVAL_S = 1.0


class AutoScaler:
    """Grow/shrink a replica pool from serving-load telemetry.

    Parameters
    ----------
    server:
        Anything exposing the three accessors the policy reads/acts on:
        ``queue_depth`` (int), ``recent_queue_wait_ms()`` (float or
        None), ``replica_count`` (int), and ``scale_replicas(n) -> int``
        — :class:`~repro.serve.server.ForecastServer` in production, a
        stub in the policy tests.
    min_replicas / max_replicas:
        Inclusive replica-count bounds; the scaler never leaves them.
        :class:`~repro.serve.server.ServeConfig` validates them.
    """

    def __init__(self, server, min_replicas, max_replicas):
        self._server = server
        self.min_replicas = int(min_replicas)
        self.max_replicas = int(max_replicas)
        self._lock = sanitizer.create_lock("AutoScaler._lock")
        self._pressure_streak = 0
        self._slack_streak = 0
        self._cooldown_until = 0.0
        self._observations = 0
        self._events = deque(maxlen=_EVENT_LOG)
        self._scale_ups = 0
        self._scale_downs = 0
        self._thread = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    # Policy (synchronous, test-drivable)
    # ------------------------------------------------------------------
    def step(self, now=None):
        """Take one observation; scale by at most one replica.

        Returns the scale delta applied: +1, -1, or 0.  ``now`` lets
        tests pin the cooldown clock.
        """
        now = perf_counter() if now is None else now
        depth = int(self._server.queue_depth)
        wait_ms = self._server.recent_queue_wait_ms()
        replicas = int(self._server.replica_count)
        pressured = depth >= HIGH_QUEUE_DEPTH or (
            wait_ms is not None and wait_ms >= HIGH_WAIT_MS)
        slack = depth == 0 and (wait_ms is None or wait_ms <= LOW_WAIT_MS)
        with self._lock:
            self._observations += 1
            if pressured:
                self._pressure_streak += 1
                self._slack_streak = 0
            elif slack:
                self._slack_streak += 1
                self._pressure_streak = 0
            else:
                self._pressure_streak = 0
                self._slack_streak = 0
            if now < self._cooldown_until:
                return 0
            if self._pressure_streak >= PATIENCE \
                    and replicas < self.max_replicas:
                target, direction = replicas + 1, +1
            elif self._slack_streak >= PATIENCE \
                    and replicas > self.min_replicas:
                target, direction = replicas - 1, -1
            else:
                return 0
            # Commit the decision before releasing the lock; the scale
            # call itself runs outside it (it forks / joins processes).
            self._pressure_streak = 0
            self._slack_streak = 0
            self._cooldown_until = now + COOLDOWN_S
        achieved = self._server.scale_replicas(target)
        with self._lock:
            if direction > 0:
                self._scale_ups += 1
            else:
                self._scale_downs += 1
            self._events.append({
                "direction": "up" if direction > 0 else "down",
                "from": replicas,
                "to": int(achieved),
                "queue_depth": depth,
                "recent_wait_ms": wait_ms,
            })
        return direction

    # ------------------------------------------------------------------
    # Background driver
    # ------------------------------------------------------------------
    def start(self):
        """Run :meth:`step` every :data:`INTERVAL_S` on a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("autoscaler already started")
        self._thread = sanitizer.create_thread(
            target=self._run, name="repro-serve-autoscaler", daemon=True)
        self._thread.start()
        return self

    def _run(self):
        while not self._stop.wait(INTERVAL_S):
            try:
                self.step()
            except RuntimeError:
                # The pool closed under us (shutdown race): the loop is
                # about to be stopped by the same teardown — idle until
                # it is rather than crash the thread.
                pass

    def close(self):
        """Stop the background driver (idempotent; policy state kept)."""
        self._stop.set()
        if self._thread is not None:
            sanitizer.join_thread(self._thread,
                                  timeout=INTERVAL_S + 10.0,
                                  what="autoscaler driver")
            self._thread = None

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # ------------------------------------------------------------------
    def snapshot(self):
        """JSON-able policy state + bounded scale-event log."""
        with self._lock:
            return {
                "config": {
                    "min_replicas": self.min_replicas,
                    "max_replicas": self.max_replicas,
                    "high_queue_depth": HIGH_QUEUE_DEPTH,
                    "high_wait_ms": HIGH_WAIT_MS,
                    "low_wait_ms": LOW_WAIT_MS,
                    "patience": PATIENCE,
                    "cooldown_s": COOLDOWN_S,
                    "interval_s": INTERVAL_S,
                },
                "observations": self._observations,
                "pressure_streak": self._pressure_streak,
                "slack_streak": self._slack_streak,
                "scale_ups": self._scale_ups,
                "scale_downs": self._scale_downs,
                "events": list(self._events),
            }
