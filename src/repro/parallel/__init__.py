"""Process parallelism: one forked-worker runtime, training on top of it.

Public surface:

- :class:`~repro.parallel.workers.WorkerSet` /
  :class:`~repro.parallel.workers.SharedParams` — the one forked-worker
  runtime: parameters rebound into one shared buffer, and forked
  children with their handshake, message rounds, ``scale_to`` and
  bounded teardown.  The training engine and the serving replica pool
  (:class:`repro.serve.ReplicaPool`) are message protocols on it;
- :class:`~repro.parallel.engine.ParallelEngine` — the data-parallel
  step engine the trainer drives when ``TrainConfig.workers >= 1``;
- :func:`~repro.parallel.workers.worker_rank` — rank of the current
  process inside a worker set, training worker or serving replica
  (``None`` in the parent);
- :class:`~repro.parallel.workers.ParallelWorkerError` — a worker
  raised or died;
- :func:`~repro.parallel.blas.limit_blas_threads` — per-process BLAS
  thread cap (applied inside every worker);
- :func:`~repro.parallel.sharding.shard_bounds` /
  :func:`~repro.parallel.sharding.shard_weights` /
  :func:`~repro.parallel.sharding.epoch_batches` — the deterministic
  sharding contract (pure functions; see their module docstring for the
  equivalence guarantee).

Process discipline: this package is the only place in the codebase that
may fork (``repro lint`` enforces a ``fork-discipline`` rule), and
:mod:`repro.parallel.workers` is the only module in it that does.
"""

from repro.parallel.blas import limit_blas_threads
from repro.parallel.engine import ParallelEngine
from repro.parallel.sharding import epoch_batches, shard_bounds, shard_weights
from repro.parallel.shm import SharedArrayBlock
from repro.parallel.workers import (ParallelWorkerError, SharedParams,
                                    WorkerSet, worker_rank)

__all__ = [
    "ParallelEngine",
    "ParallelWorkerError",
    "SharedParams",
    "WorkerSet",
    "worker_rank",
    "limit_blas_threads",
    "shard_bounds",
    "shard_weights",
    "epoch_batches",
    "SharedArrayBlock",
]
