"""Forked replica pool for serving: weights once per host, hot-swappable.

The serving protocol on the forked-worker runtime of
:mod:`repro.parallel.workers`:

- **One flat parameter buffer.**  Before forking, every model parameter
  is rebound into one shared-memory block
  (:class:`~repro.parallel.workers.SharedParams`).  The forked replicas
  alias the same mapping, so a 47M-parameter model costs its weight
  bytes *once* per host no matter how many replicas serve it — and a
  checkpoint hot-swap is one in-place write into that block, not a
  per-replica broadcast.
- **BSP-style dispatch.**  The parent only writes the parameter buffer
  (checkpoint install) while every replica is idle, and replicas only
  read it during a round, while the parent waits on their replies.  A
  **generation counter** in the shared request slot is bumped after
  each install; every reply carries the generation it served, so a
  response can never correspond to a torn half-old/half-new parameter
  state.

A ``predict`` call shards the coalesced batch contiguously across the
live replicas (``shard_bounds``), each replica computes its rows of the
shared output slot, and the parent returns them in rank order — row
``i`` of the result is sample ``i`` of the request, same as a
single-process forward.  A replica that dies fails the request it was
serving and leaves the pool; later requests shard over the survivors.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.data.windows import BATCH_FIELDS, SampleBatch
from repro.inspect import sanitizer
from repro.parallel.sharding import shard_bounds
from repro.parallel.shm import SharedArrayBlock
from repro.parallel.workers import SharedParams, WorkerSet
from repro.tensor import no_grad

__all__ = ["ReplicaPool"]


class ReplicaPool:
    """Fork-based inference pool over one shared parameter block.

    Parameters
    ----------
    model:
        The forecaster; its parameters define the flat buffer layout.
        ``model.predict(batch) -> (N, ...)`` runs inside each replica.
    template:
        A :class:`~repro.data.windows.SampleBatch` whose per-sample
        field shapes/dtypes size the shared request/response slots.
    replicas:
        Number of forked replica processes to start with (>= 1).
    max_batch:
        Capacity of the shared request slot (the batcher's cap).

    Each replica caps BLAS at one thread (:class:`WorkerSet`).
    """

    def __init__(self, model, template: SampleBatch, replicas, max_batch):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1; got {replicas}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1; got {max_batch}")
        self.model = model
        self.max_batch = int(max_batch)
        self._initial_replicas = int(replicas)
        self._template = template
        self._shared = SharedParams(model.parameters())
        self._workers = WorkerSet(self._serve_shard, "replica",
                                  setup=model.eval)
        self._lock = sanitizer.create_lock("ReplicaPool._lock")
        self._io_block = None
        self._started = False
        self._closed = False
        self.shared_bytes = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Publish weights to shared memory and fork the replicas."""
        if self._started:
            raise RuntimeError("pool already started")
        self._started = True
        template = self._template
        io_spec = {field: ((self.max_batch,)
                           + getattr(template, field).shape[1:],
                           getattr(template, field).dtype)
                   for field in BATCH_FIELDS}
        io_spec["out"] = ((self.max_batch,) + template.target.shape[1:],
                          self._shared.dtype)
        io_spec["generation"] = ((1,), np.int64)
        try:
            self._shared.bind()
            self._io_block = SharedArrayBlock(io_spec)
            self._io_block["generation"][0] = 0
            self.shared_bytes = self._shared.nbytes + self._io_block.nbytes
            self._workers.scale_to(self._initial_replicas)
        except BaseException:
            self.close()
            raise
        return self

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def close(self):
        """Drain the replicas and release shared memory (idempotent).

        The whole teardown runs under the dispatch lock: a concurrent
        :meth:`predict` either completes against the live pool before
        teardown starts, or observes ``_closed`` and raises cleanly —
        it can never see half-closed pipes or an unmapped parameter
        block mid-request.  Replicas never take this lock, so holding
        it across the bounded teardown cannot deadlock.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._workers.close()
            # Re-privatise the weights so the model outlives the pool.
            self._shared.close()
            if self._io_block is not None:
                self._io_block.close()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    @property
    def generation(self):
        """Parameter-buffer generation (bumps once per checkpoint install)."""
        with self._lock:
            if self._closed or not self._started:
                raise RuntimeError("pool is not running")
            return int(self._io_block["generation"][0])

    def predict(self, batch: SampleBatch):
        """One batched forward, sharded across the live replicas.

        Returns ``(predictions, generation)`` where row ``i`` of
        ``predictions`` is the forecast for sample ``i`` and
        ``generation`` is the parameter generation that served the
        whole batch.  A request larger than the shared slot capacity is
        served in ``max_batch`` chunks *under the same lock*, so even
        an oversized request is answered by exactly one generation —
        the install path cannot interleave with any part of it.

        A replica that raises or dies fails the request with
        :class:`~repro.parallel.workers.ParallelWorkerError`; a dead one
        leaves the pool, and with none left every request raises it.
        """
        n = len(batch)
        if n == 0:
            raise ValueError("cannot serve an empty batch")
        with self._lock:
            if self._closed or not self._started:
                raise RuntimeError("pool is not running")
            io = self._io_block.arrays
            generation = int(io["generation"][0])
            pieces = []
            for begin in range(0, n, self.max_batch):
                chunk = batch.slice(begin, begin + self.max_batch)
                rows = len(chunk)
                for field in BATCH_FIELDS:
                    io[field][:rows] = getattr(chunk, field)
                served = self._workers.round(partial(shard_bounds, rows))
                # Installs are mutually excluded with this call, so the
                # live generation served every shard of every chunk.
                assert set(served) == {generation}
                pieces.append(io["out"][:rows].copy())
        prediction = pieces[0] if len(pieces) == 1 \
            else np.concatenate(pieces, axis=0)
        return prediction, generation

    def install(self, state_dict):
        """Hot-swap the shared weights in place; returns the new generation.

        Writes once into the flat buffer (``load_state_dict`` assigns
        into the existing views) while no replica is computing — the
        lock excludes :meth:`predict` — then bumps the generation
        counter.  No replica ever observes a torn parameter state.
        """
        with self._lock:
            if self._closed or not self._started:
                raise RuntimeError("pool is not running")
            self.model.load_state_dict(state_dict)
            generation = self._io_block["generation"]
            generation[0] += 1
            return int(generation[0])

    # ------------------------------------------------------------------
    # Elastic scaling
    # ------------------------------------------------------------------
    @property
    def size(self):
        """Live replica count."""
        return self._workers.size

    @property
    def blas_modes(self):
        """The BLAS cap mechanism each live replica reported."""
        return self._workers.blas_modes

    def scale_to(self, replicas):
        """Grow or shrink the pool to ``replicas`` live processes.

        Scaling never tears parameter state: new replicas fork from the
        parent and alias the *same* shared parameter block (MAP_SHARED
        survives fork), so they serve the current generation from their
        first request — no weight copy, no broadcast, no generation
        skew.  Replicas join and leave between rounds, so a request
        chunk is sharded over one layout, never half of each.

        Growth forks and handshakes the new children with no lock held
        — serving continues on the live replicas while the new ones
        come up.  Not safe to call concurrently with itself (the
        autoscaler is a single thread); safe against concurrent
        ``predict``/``install``/``close``.

        Returns the new live replica count.
        """
        replicas = int(replicas)
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1; got {replicas}")
        if not self._started:
            raise RuntimeError("pool is not running")
        return self._workers.scale_to(replicas)

    # ------------------------------------------------------------------
    # Replica side (runs in the forked child)
    # ------------------------------------------------------------------
    def _serve_shard(self, start, stop):
        """Forecast rows ``[start, stop)`` of the request slot in place."""
        io = self._io_block.arrays
        if stop > start:
            shard = SampleBatch(**{field: io[field][start:stop]
                                   for field in BATCH_FIELDS})
            with no_grad():
                io["out"][start:stop] = self.model.predict(shard)
        return int(io["generation"][0])
