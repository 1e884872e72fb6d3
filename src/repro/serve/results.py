"""Generation-aware forecast result cache with single-flight dedup.

MUSE-Net's multi-periodic windows make live forecasts *highly*
cacheable: at any stream tick there is exactly one next-interval
forecast, a ``(2, H, W)`` grid covering every cell at once (the
:class:`~repro.serve.cache.WindowCache` one-cache-covers-all-cells
design).  A forecast at a given ``(target_index, parameter_generation)``
is therefore an **immutable, shareable artifact**: the windows that
produced it can never change (the stream clock only moves forward) and
the weights are pinned by the generation counter.  N concurrent
clients asking for the same tick should cost one model forward, not N.

:class:`ForecastCache` provides exactly that:

- **Memoization** keyed by ``(target_index, generation)``.  Completed
  forecasts are stored read-only (writeable flag cleared) in a bounded
  LRU map; a hit returns the *same* array every caller before it got —
  bit-identical by construction, not by tolerance.
- **Single-flight deduplication.**  The first requester of a missing
  key becomes its *owner* and runs the forward; every concurrent
  requester of the same key joins the owner's future and receives the
  owner's result.  The owner/join decision happens atomically under
  one lock, so exactly one forward runs per key no matter how many
  clients race — the property ``benchmarks/bench_serve_latency.py``'s
  cache arm gates in CI.
- **No invalidation.**  The server takes each key from the window it
  sampled, the generation it read first and, when it scales samples,
  the scaler's bounds, so a key names one immutable artifact: after a
  push the next sample has a new index, after a hot swap a new
  generation, after a scaler widening new bounds.  An older entry can
  answer only a request that raced the swap, with the pure
  old-generation value its key names.  The LRU bound keeps memory at
  ``capacity`` grids.

The cache never *computes* anything: correctness rests entirely on the
key identifying an immutable artifact, which is why a result computed
while a hot swap raced the forward is delivered to its waiters (it is
a pure old- or new-generation value, the same guarantee the swap tests
enforce) but **not stored** — see ``ForecastServer.forecast_tick``.
"""

from __future__ import annotations

from collections import OrderedDict
from concurrent.futures import Future, InvalidStateError

import numpy as np

from repro.inspect import sanitizer

__all__ = ["ForecastCache"]


class ForecastCache:
    """Bounded single-flight memo of completed full-grid forecasts.

    Parameters
    ----------
    capacity:
        Completed entries kept (LRU eviction past this).  A serving
        deployment rarely needs more than a few: only the newest tick
        of the serving generation is queried on a live stream.
    """

    def __init__(self, capacity=8):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1; got {capacity}")
        self.capacity = int(capacity)
        self._lock = sanitizer.create_lock("ForecastCache._lock")
        self._done = OrderedDict()   # key -> read-only ndarray
        self._inflight = {}          # key -> Future (owner computing)
        self._hits = 0
        self._coalesced = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    def lookup(self, key):
        """Atomically classify one request for ``key``.

        Returns one of:

        - ``("hit", value)`` — a completed entry; serve ``value``.
        - ``("join", future)`` — another request owns this key and is
          computing; wait on ``future`` for its (shared) result.
        - ``("owner", future)`` — the caller now owns the key: it MUST
          run the forward and then call :meth:`complete` (or
          :meth:`fail`), which resolves ``future`` for every joiner.
        """
        with self._lock:
            value = self._done.get(key)
            if value is not None:
                self._done.move_to_end(key)
                self._hits += 1
                return "hit", value
            future = self._inflight.get(key)
            if future is not None:
                self._coalesced += 1
                return "join", future
            future = Future()
            self._inflight[key] = future
            self._misses += 1
            return "owner", future

    def complete(self, key, value, store=True):
        """Owner callback: publish ``value`` for ``key``.

        The value is frozen (writeable flag cleared) so every consumer
        of the shared array sees identical bits forever.  With
        ``store=False`` the joiners are still resolved but nothing is
        memoized — used when a hot swap raced the forward and the
        generation in ``key`` no longer names the serving weights.
        Returns the frozen array.
        """
        value = np.asarray(value)
        if value.flags.writeable:
            value = value.copy()
            value.flags.writeable = False
        with self._lock:
            future = self._inflight.pop(key, None)
            if store:
                self._done[key] = value
                self._done.move_to_end(key)
                while len(self._done) > self.capacity:
                    self._done.popitem(last=False)
                    self._evictions += 1
        # Resolve outside the lock: set_result wakes every joiner (and
        # runs their done-callbacks) — none of that belongs under the
        # cache lock.
        if future is not None:
            try:
                future.set_result(value)
            except InvalidStateError:  # pragma: no cover - lost race
                pass
        return value

    def fail(self, key, exc):
        """Owner callback: deliver ``exc`` to every joiner of ``key``."""
        with self._lock:
            future = self._inflight.pop(key, None)
        if future is not None:
            try:
                future.set_exception(exc)
            except InvalidStateError:  # pragma: no cover - lost race
                pass

    # ------------------------------------------------------------------
    def __len__(self):
        with self._lock:
            return len(self._done)

    def snapshot(self):
        """JSON-able cache telemetry."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._done),
                "inflight": len(self._inflight),
                "hits": self._hits,
                "coalesced": self._coalesced,
                "misses": self._misses,
                "evictions": self._evictions,
            }
