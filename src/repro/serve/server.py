"""The forecast server: micro-batching + replicas + streaming windows.

:class:`ForecastServer` is the facade the CLI, the latency benchmark,
and embedding applications use.  It composes the serving subsystem:

- a :class:`~repro.serve.batcher.MicroBatcher` coalescing concurrent
  requests into one tape-free forward (``max_batch`` / ``max_wait_ms``);
- optionally a :class:`~repro.serve.pool.ReplicaPool` of forked
  replicas sharing one flat parameter buffer (``replicas >= 1``); with
  ``replicas=0`` forwards run in-process, which is the right choice on
  single-core hosts;
- optionally a :class:`~repro.serve.cache.WindowCache` maintaining the
  rolling closeness/period/trend windows of a live flow stream
  (``periodicity`` given), so ``push_tick`` + ``forecast_tick`` serve
  next-interval forecasts without re-slicing history.  The cache keeps
  frames as pushed (raw flows when the server has a scaler); a forecast
  scales the sample it takes once;
- with the window cache, a :class:`~repro.serve.results.ForecastCache`
  memoizing streaming forecasts per ``(target index, generation)`` of
  the window each request sampled (plus the scaler's bounds), with
  single-flight dedup: the owner of a key runs its forward on its own
  thread, outside the batcher;
- optionally an :class:`~repro.serve.autoscale.AutoScaler` resizing the
  replica pool between ``[min_replicas, max_replicas]`` from
  queue-depth/queue-wait telemetry (``max_replicas >= 1``);
- :class:`~repro.serve.stats.LatencyStats` for p50/p99/throughput
  instrumentation of the micro-batched requests, read through
  :meth:`ForecastServer.snapshot`.

Checkpoint hot-swap (:meth:`load_checkpoint`) installs verified weights
with **one write** — into the shared flat buffer under the pool's
dispatch lock, or into the in-process parameters under the forward
lock — and bumps a generation counter.  In-flight requests complete on
the generation they started with; no request is ever served a torn
parameter state (see ``docs/serving.md`` for the protocol).

Consistency contract: for any interleaving of concurrent requests, the
served rows equal the single-request offline forward
(``Trainer.predict_scaled``) to float tolerance — enforced in CI by
``benchmarks/bench_serve_latency.py`` — and every ``forecast_tick``
answer equals the single-sample forward of its window bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.windows import SampleBatch
from repro.inspect import sanitizer
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import WindowCache
from repro.serve.results import ForecastCache
from repro.serve.stats import LatencyStats
from repro.tensor import no_grad
from repro.training.checkpoint import read_weights

__all__ = ["ForecastServer", "ServeConfig"]


@dataclass
class ServeConfig:
    """Serving knobs (see ``docs/serving.md`` for tuning guidance)."""

    max_batch: int = 32      # samples coalesced per forward
    max_wait_ms: float = 2.0  # batching window after the first request
    replicas: int = 0        # forked replicas; 0 = in-process forwards
    # Graph-compiled forwards (repro.compile.ForwardCompiler): record
    # predict once per coalesced batch size, replay a fused tape-free
    # kernel schedule against a liveness-packed arena.  In-process only
    # (replicas = 0); validated bitwise against eager per plan, with
    # automatic per-size eager fallback.  See docs/performance.md.
    compile: bool = False
    # Load-adaptive replica autoscaling (repro.serve.autoscale): with
    # max_replicas >= 1 the server runs an AutoScaler growing/shrinking
    # the pool between [min_replicas, max_replicas] from queue-depth
    # and queue-wait telemetry.  Requires a replica pool (replicas >= 1
    # is the starting size).  0/0 disables.
    min_replicas: int = 0
    max_replicas: int = 0

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1; got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ValueError(
                f"max_wait_ms must be >= 0; got {self.max_wait_ms}")
        if self.replicas < 0:
            raise ValueError(f"replicas must be >= 0; got {self.replicas}")
        if self.compile and self.replicas >= 1:
            raise ValueError(
                "compile=True requires replicas=0: compiled forwards "
                "replay in-process against pinned model parameters")
        if (self.min_replicas > 0) != (self.max_replicas > 0):
            raise ValueError(
                "autoscaling needs both min_replicas and max_replicas "
                f"(got min={self.min_replicas}, max={self.max_replicas})")
        if self.max_replicas > 0:
            if self.replicas < 1:
                raise ValueError(
                    "autoscaling needs a replica pool: set replicas >= 1 "
                    "as the starting size")
            if not (self.min_replicas <= self.replicas
                    <= self.max_replicas):
                raise ValueError(
                    f"need min_replicas <= replicas <= max_replicas; got "
                    f"{self.min_replicas} <= {self.replicas} <= "
                    f"{self.max_replicas}")


class ForecastServer:
    """Serve forecasts from one model with micro-batching and hot swap.

    Parameters
    ----------
    model:
        A forecaster following the repo protocol
        (``predict(SampleBatch) -> (N, 2, H, W)``).
    config:
        A :class:`ServeConfig`; defaults apply when omitted.
    scaler:
        Optional fitted :class:`~repro.data.scaler.MinMaxScaler`; makes
        the streaming API take raw flows: pushed frames are cached raw
        and each sample is scaled when a forecast takes it.
    periodicity:
        Optional :class:`~repro.data.periodicity.MultiPeriodicity`;
        enables the streaming API (:meth:`push_tick` /
        :meth:`forecast_tick`) through a :class:`WindowCache`.
    frame_shape:
        Frame shape for the stream cache, e.g. ``(2, H, W)``; required
        with ``periodicity``.
    template:
        A representative :class:`SampleBatch` (any length) used to size
        the replica pool's shared request slots; required when
        ``config.replicas >= 1``.
    """

    def __init__(self, model, config: ServeConfig = None, scaler=None,
                 periodicity=None, frame_shape=None, template=None):
        self.model = model
        self.config = config if config is not None else ServeConfig()
        self.scaler = scaler
        parameters = model.parameters() if hasattr(model, "parameters") else []
        self._dtype = parameters[0].data.dtype if parameters else None
        self.stats = LatencyStats()
        self._forward_lock = sanitizer.create_lock("ForecastServer._forward_lock")
        self._generation = 0
        # Staleness telemetry: a stream clock counting live ticks
        # (push_tick/push_gap) and its value when the serving weights
        # were installed.
        self._ticks_seen = 0
        self._generation_tick = 0
        self._pool = None
        self._compiler = None
        if self.config.compile:
            from repro.compile import ForwardCompiler

            self._compiler = ForwardCompiler(model)
        self._template = template
        self._batcher = None
        self._started = False
        self._closed = False
        self.autoscaler = None
        self.cache = None
        #: Single-flight forecast memo; exists with the window cache.
        self.results = None
        if periodicity is not None:
            if frame_shape is None:
                raise ValueError("periodicity requires frame_shape")
            self.cache = WindowCache(periodicity, frame_shape)
            self.results = ForecastCache()
        if self.config.replicas >= 1 and template is None:
            raise ValueError(
                "replicas >= 1 requires a template SampleBatch to size "
                "the shared request slots")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Fork the replica pool (if any) and start the batcher."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        if hasattr(self.model, "eval"):
            self.model.eval()
        if self.config.replicas >= 1:
            from repro.serve.pool import ReplicaPool

            self._pool = ReplicaPool(
                self.model, self._template, self.config.replicas,
                self.config.max_batch).start()
        self._batcher = MicroBatcher(
            self._forward, max_batch=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
            on_batch=self.stats.record_batch)
        if self.config.max_replicas > 0:
            from repro.serve.autoscale import AutoScaler

            self.autoscaler = AutoScaler(
                self, self.config.min_replicas,
                self.config.max_replicas).start()
        self.stats.reset_clock()
        return self

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def close(self):
        """Drain pending requests, stop the batcher, drain the pool."""
        if self._closed:
            return
        self._closed = True
        # Autoscaler first: no scale decision may race pool teardown.
        if self.autoscaler is not None:
            self.autoscaler.close()
        if self._batcher is not None:
            self._batcher.close()
        if self._pool is not None:
            self._pool.close()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _forward(self, batch: SampleBatch):
        """One tape-free forward: a coalesced batch on the batcher
        thread, or a stream forecast's sample on its owner's thread."""
        if self._dtype is not None and batch.target.dtype != self._dtype:
            batch = batch.astype(self._dtype)
        if self._pool is not None:
            prediction, _generation = self._pool.predict(batch)
            return prediction
        with self._forward_lock:
            if self._compiler is not None:
                return self._compiler.forward(batch)
            with no_grad():
                return np.asarray(self.model.predict(batch))

    def _require_running(self):
        if not self._started or self._closed:
            raise RuntimeError("server is not running; use it as a context "
                               "manager or call start()")

    def submit(self, batch: SampleBatch):
        """Enqueue a request; returns a future of its prediction rows."""
        self._require_running()
        return self._batcher.submit(batch)

    def forecast(self, batch: SampleBatch):
        """Blocking scaled-space forecast for ``batch``."""
        return self.submit(batch).result()

    # ------------------------------------------------------------------
    # Streaming API
    # ------------------------------------------------------------------
    def push_tick(self, frame):
        """Observe one stream tick; returns ticks seen so far.

        With a ``scaler``, ``frame`` is raw flows (cached raw, scaled
        at sample time); otherwise it must already be scaled.
        """
        if self.cache is None:
            raise ValueError("streaming needs periodicity + frame_shape")
        self._ticks_seen += 1
        return self.cache.push(frame)

    def push_gap(self):
        """Record one unobserved interval (the streaming gap contract)."""
        if self.cache is None:
            raise ValueError("streaming needs periodicity + frame_shape")
        self._ticks_seen += 1
        return self.cache.push_gap()

    @property
    def staleness_ticks(self):
        """Stream ticks observed since the serving weights were installed."""
        return self._ticks_seen - self._generation_tick

    def _scaled(self, sample):
        """A cached sample in scaled space.

        With a scaler the cache holds raw frames; scaling the whole
        sample here equals scaling each frame at push time bitwise
        (min-max scaling is elementwise with global bounds).  The cast
        to the model dtype is left to :meth:`_forward`.
        """
        if self.scaler is None:
            return sample
        closeness = self.scaler.transform(sample.closeness)
        return SampleBatch(
            closeness=closeness,
            period=self.scaler.transform(sample.period),
            trend=self.scaler.transform(sample.trend),
            target=np.zeros_like(sample.target, dtype=closeness.dtype),
            indices=sample.indices)

    def forecast_tick(self):
        """Next-interval forecast through the forecast result cache.

        Returns ``(prediction, index, generation, imputed)``: the scaled
        ``(2, H, W)`` forecast, the target interval it is for, the
        weights' generation, and the carry-forward frames per
        sub-series in the window it was built on.  Windows, index and
        counts come from one :meth:`WindowCache.sample`, and the memo
        key is that sample's ``(index, generation)``, plus the scaler's
        bounds when the server scales its samples.

        Concurrent requests for one key cost exactly **one** model
        forward: the first requester owns the key and runs the forward
        on its own thread — never coalesced with other requests, never
        waiting out the batching window, so the answer equals the
        single-sample forward bitwise — everyone else joins its future,
        and later requests hit the memo, all receiving the *same*
        read-only array.  A push moves the next sample to a new index,
        a hot swap bumps the generation and stream adaptation widens the
        scaler, so a request that starts after any of them never asks
        for an older key; the memo's LRU bound caps what it keeps.

        The returned array is shared and read-only; copy before
        mutating.
        """
        if self.cache is None:
            raise ValueError("streaming needs periodicity + frame_shape")
        self._require_running()
        # Read the generation BEFORE the forward: the key must name the
        # weights the caller observed when asking.  If a hot swap lands
        # between this read and the forward, the computed value is a
        # pure new-generation forecast — fine to deliver (the swap
        # contract: a racing request matches one of the two pure
        # generations) but wrong to memoize under the old key, so the
        # owner rechecks the generation before storing.
        generation = self.generation
        sample, imputed = self.cache.sample()
        index = int(sample.indices[0])
        key = (index, generation)
        if self.scaler is not None:
            # Stream adaptation widens the scaler in place, also when
            # its retrain fails and no new generation is installed: a
            # window scaled with other bounds is another answer.
            key += (self.scaler.data_min, self.scaler.data_max)
        kind, token = self.results.lookup(key)
        if kind == "hit":
            return token, index, generation, imputed
        if kind == "join":
            return token.result(), index, generation, imputed
        try:
            prediction = self._forward(self._scaled(sample))[0]
        except BaseException as exc:
            self.results.fail(key, exc)
            raise
        store = self.generation == generation
        value = self.results.complete(key, prediction, store=store)
        return value, index, generation, imputed

    # ------------------------------------------------------------------
    # Checkpoint hot swap
    # ------------------------------------------------------------------
    @property
    def generation(self):
        """Parameter generation: bumps exactly once per weight install."""
        if self._pool is not None:
            return self._pool.generation
        return self._generation

    def load_checkpoint(self, path):
        """Hot-swap verified checkpoint weights; returns the new generation.

        Inference-only: the archive needs no optimizer state.  The
        weights are written **once**, in place — into the replica
        pool's shared flat buffer (all replicas see the swap at their
        next request) or into the in-process parameters — while no
        forward is in flight, so a concurrent request stream observes
        either the old or the new generation, never a mixture.
        """
        state = read_weights(path)
        if self._pool is not None:
            generation = self._pool.install(state)
        else:
            with self._forward_lock:
                self.model.load_state_dict(state)
                self._generation += 1
                generation = self._generation
        self._generation_tick = self._ticks_seen
        return generation

    # ------------------------------------------------------------------
    # Load telemetry + elastic scaling (repro.serve.autoscale)
    # ------------------------------------------------------------------
    @property
    def queue_depth(self):
        """Requests currently waiting in the micro-batcher (approximate)."""
        return self._batcher.depth if self._batcher is not None else 0

    def recent_queue_wait_ms(self):
        """Mean queue wait over the trailing request window, in ms."""
        return self.stats.recent_queue_wait_ms()

    @property
    def replica_count(self):
        """Live replica processes (0 for in-process forwards)."""
        return self._pool.size if self._pool is not None else 0

    def scale_replicas(self, replicas):
        """Resize the replica pool; returns the new live count.

        Scaling reuses the pool's shared-parameter machinery — new
        replicas alias the existing generation-counted weight buffer —
        so a scale event can never tear parameter state.
        """
        if self._pool is None:
            raise RuntimeError(
                "scaling requires a replica pool (start with replicas "
                ">= 1)")
        return self._pool.scale_to(replicas)

    # ------------------------------------------------------------------
    def snapshot(self):
        """JSON-able serving state: latency stats, configuration, and
        each component's own ``snapshot()`` (window, compiler, result
        cache, autoscaler) under its key."""
        snap = self.stats.snapshot()
        snap.update({
            "generation": self.generation,
            "replicas": self.config.replicas,
            "max_batch": self.config.max_batch,
            "max_wait_ms": self.config.max_wait_ms,
            "staleness_ticks": self.staleness_ticks,
        })
        if self._pool is not None:
            snap["shared_mib"] = round(self._pool.shared_bytes / 2**20, 3)
            snap["blas_modes"] = list(self._pool.blas_modes)
            snap["live_replicas"] = self.replica_count
        if self.cache is not None:
            snap["cache"] = self.cache.snapshot()
            snap["result_cache"] = self.results.snapshot()
        if self._compiler is not None:
            snap["compile"] = self._compiler.snapshot()
        if self.autoscaler is not None:
            snap["autoscaler"] = self.autoscaler.snapshot()
        return snap
