"""Fork-based data-parallel training engine with shared-memory allreduce.

A :class:`ParallelEngine` is the training protocol on the forked-worker
runtime of :mod:`repro.parallel.workers`.  It shares three regions with
its workers (:mod:`repro.parallel.shm`):

- a **flat parameter buffer** (:class:`~repro.parallel.workers.SharedParams`):
  the in-place optimizer kernels update shared memory directly and every
  worker replica — whose parameters alias the same mapping through fork
  — sees the new weights at its next step with zero copies and zero
  pickling;
- a **gradient shard matrix** ``(workers, num_weights)``: each worker
  backprops its contiguous shard of the global batch, scales the
  shard-mean gradient by ``n_w / N`` (:mod:`repro.parallel.sharding`),
  and writes it flat into its row; the parent's allreduce is then a
  single rank-ordered ``np.sum(..., axis=0)`` straight into the
  optimizer's flat gradient arena (:meth:`Optimizer.flat_grads`), whose
  views become the parameters' ``grad`` — the sentinel, gradient
  clipping, and the optimizer all read the *reduced* gradient through
  the normal ``param.grad`` protocol;
- a **double-buffered batch ring**: a producer thread in the parent
  assembles the next global batch (the fancy-index gather happens once,
  not per worker) into a free ring slot while the workers compute the
  current one; workers read contiguous, zero-copy shard views.

Each step is one :meth:`~repro.parallel.workers.WorkerSet.round`: the
parent sends a step descriptor (slot + shard bounds — a few dozen
bytes), the workers reply with scalar losses, and the heavy arrays
never cross a pipe.  The parent only runs its optimizer step while
every worker is blocked on its pipe, so no reader ever races a writer
on the shared parameter buffer.  A worker that raises or dies fails the
step with :class:`~repro.parallel.workers.ParallelWorkerError`.

Determinism: the caller draws the epoch order from the training rng
exactly as the single-process path does, shards are contiguous and
order-preserving, and the allreduce sums rows in fixed rank order — a
run is bit-identical run-to-run at a fixed seed and worker count, and
for models whose loss does not consume the per-step rng the reduced
gradient equals the single-process batch gradient to float summation
tolerance.  (Stochastic models — e.g. MUSE-Net's posterior sampling —
draw from a per-``(seed, epoch, step, rank)`` stream instead of the
trainer's rng, so they are reproducible per worker count but not
bit-equal *across* worker counts.)

Known limitation: non-parameter module buffers (BatchNorm running
statistics) are process-private after fork — workers update their own
copies and the parent's stay at fork-time values.  See
``docs/performance.md`` for when not to use workers.
"""

from __future__ import annotations

import contextlib
import queue
import threading
from time import perf_counter

import numpy as np

from repro.data.windows import BATCH_FIELDS, SampleBatch
from repro.inspect import sanitizer
from repro.parallel.sharding import epoch_batches, shard_bounds
from repro.parallel.shm import SharedArrayBlock
from repro.parallel.workers import SharedParams, WorkerSet
from repro.tensor import detect_anomaly
from repro.tensor import tensor as _tensor_core

__all__ = ["ParallelEngine"]

#: Batch ring slots: the producer fills one while the workers compute
#: on the other.
_RING_SLOTS = 2


class ParallelEngine:
    """Data-parallel step engine for :class:`~repro.training.Trainer`.

    Use as a context manager: ``__enter__`` forks the pool, ``__exit__``
    drains it (workers receive a stop message, are joined, and the
    shared segments are unlinked — no orphan processes, even on an
    exception or an interrupt mid-epoch).  Between ``start`` and
    ``close`` the model's parameters alias shared memory; ``close``
    copies the current values back into private arrays, so the model
    remains fully usable afterwards.

    Parameters
    ----------
    model, optimizer:
        The trainer's model and optimizer.  ``optimizer.parameters``
        defines the flattening order; all parameters must share one
        floating dtype (the trainer's cast guarantees this).
    train:
        The training :class:`~repro.data.windows.SampleBatch` the
        producer gathers global batches from.
    batch_size:
        Global batch size (ring slots are allocated at this capacity).
    workers:
        Number of forked worker processes (>= 1), each capped at one
        BLAS thread — the workers themselves are the parallelism.
    seed:
        Base seed for the per-``(seed, epoch, step, rank)`` worker rng
        streams handed to ``training_loss``.
    detect_anomaly:
        Run each worker's compute under
        :func:`repro.tensor.detect_anomaly`; anomalies surface as
        :class:`~repro.parallel.workers.ParallelWorkerError` naming the
        op.
    """

    def __init__(self, model, optimizer, train, batch_size, workers,
                 seed=0, detect_anomaly=False):
        if workers < 1:
            raise ValueError(f"workers must be >= 1; got {workers}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1; got {batch_size}")
        self.model = model
        self.optimizer = optimizer
        self.train = train
        self.batch_size = int(batch_size)
        self.workers = int(workers)
        self.seed = int(seed)
        self.detect_anomaly = bool(detect_anomaly)
        self._shared = SharedParams(optimizer.parameters)
        self._workers = WorkerSet(self._worker_step, "worker",
                                  setup=model.train)

        # Telemetry (parent side).
        self.reduce_s = 0.0
        self.reduce_count = 0
        self.prefetch_stall_s = 0.0
        self.prefetch_stall_count = 0
        self.steps = 0
        self.blas_modes = []
        self.shared_bytes = 0

        self._grad_block = None
        self._ring_block = None
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Allocate shared memory, bind parameters into it, fork the pool."""
        if self._started:
            raise RuntimeError("engine already started")
        self._started = True
        shared = self._shared
        try:
            shared.bind()
            self._grad_block = SharedArrayBlock(
                {"grads": ((self.workers, shared.total), shared.dtype),
                 "mask": ((self.workers, len(shared.params)), np.uint8)},
                zero=True)
            self._ring_block = SharedArrayBlock({
                f"{field}{slot}": ((self.batch_size,)
                                   + getattr(self.train, field).shape[1:],
                                   getattr(self.train, field).dtype)
                for slot in range(_RING_SLOTS) for field in BATCH_FIELDS})
            self.shared_bytes = (shared.nbytes + self._grad_block.nbytes
                                 + self._ring_block.nbytes)
            self._workers.scale_to(self.workers)
            self.blas_modes = self._workers.blas_modes
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
        """Drain the pool and release shared memory (idempotent).

        The worker set stops every worker within one grace period — the
        guarantee is zero child processes on return no matter how
        training ended.  Parameter values are copied back into private
        arrays so the model (checkpointing, evaluation, best-state
        restore) keeps working after the shared segment is unlinked.
        """
        if self._closed:
            return
        self._closed = True
        self._workers.close()
        self._shared.close()
        for block in (self._grad_block, self._ring_block):
            if block is not None:
                block.close()

    # ------------------------------------------------------------------
    # Epoch driving
    # ------------------------------------------------------------------
    def epoch_steps(self, order, epoch):
        """Run one epoch; yields ``(loss, reg)`` per global batch.

        ``order`` is the epoch's shuffled sample order (drawn by the
        caller from the training rng, identically to the single-process
        path).  Before each yield the *reduced* batch gradient has been
        installed on every contributing parameter's ``grad``, so the
        caller's sentinel/clip/step tail works unchanged.  The producer
        thread prefetching the next batch is stopped cleanly even when
        the caller abandons the generator mid-epoch (interrupt, early
        stop, divergence).
        """
        if not self._started or self._closed:
            raise RuntimeError("engine is not running; use it as a context "
                               "manager around the fit")
        order = np.asarray(order)
        steps_total = -(-len(order) // self.batch_size) if len(order) else 0
        free = queue.Queue()
        filled = queue.Queue()
        for slot in range(_RING_SLOTS):
            free.put(slot)
        stop_event = threading.Event()
        producer = sanitizer.create_thread(
            target=self._produce, args=(order, free, filled, stop_event),
            name="repro-prefetch", daemon=True)
        producer.start()
        grads = self._grad_block["grads"]
        mask = self._grad_block["mask"]
        params = self._shared.params
        try:
            for _ in range(steps_total):
                begin = perf_counter()
                desc = filled.get()
                stall = perf_counter() - begin
                self.prefetch_stall_s += stall
                self.prefetch_stall_count += 1
                if desc is None:  # pragma: no cover - producer died early
                    break
                step, slot, n = desc
                replies = self._workers.round(lambda count: [
                    (epoch, step, slot, rank, start, stop, n)
                    for rank, (start, stop) in enumerate(
                        shard_bounds(n, count))])
                free.put(slot)
                begin = perf_counter()
                reduced, views = self.optimizer.flat_grads()
                np.sum(grads, axis=0, out=reduced)
                active = mask.any(axis=0)
                for index, param in enumerate(params):
                    param.grad = views[index] if active[index] else None
                self.reduce_s += perf_counter() - begin
                self.reduce_count += 1
                profiler = _tensor_core._THREAD.hooks.profiler
                if profiler is not None:
                    profiler.mark()
                loss = sum(r[0] * (r[2] / n) for r in replies)
                reg = sum(r[1] * (r[2] / n) for r in replies)
                self.steps += 1
                yield loss, reg
        finally:
            stop_event.set()
            # Unblock a producer waiting on a free slot, then drain.
            free.put(None)
            # Reported (not raised: this is a finally block and must
            # not mask an in-flight exception) — the producer is a
            # daemon, so a hang here can never hang CI, but it must
            # never be silent either.
            sanitizer.join_thread(producer, timeout=5.0,
                                  what="prefetch producer")

    def _produce(self, order, free, filled, stop_event):
        """Producer thread: gather global batches into free ring slots."""
        ring = self._ring_block.arrays
        train = self.train
        for step, idx in enumerate(epoch_batches(order, self.batch_size)):
            slot = free.get()
            if slot is None or stop_event.is_set():
                return
            n = len(idx)
            for field in BATCH_FIELDS:
                np.take(getattr(train, field), idx, axis=0,
                        out=ring[f"{field}{slot}"][:n])
            filled.put((step, slot, n))
        filled.put(None)

    def snapshot(self):
        """JSON-able counters for ``History.parallel``."""
        return {
            "workers": self.workers,
            "steps": self.steps,
            "reduce_s": self.reduce_s,
            "reduce_count": self.reduce_count,
            "prefetch_stall_s": self.prefetch_stall_s,
            "prefetch_stall_count": self.prefetch_stall_count,
            "blas_modes": list(self.blas_modes),
            "shared_mib": round(self.shared_bytes / 2**20, 3),
        }

    # ------------------------------------------------------------------
    # Worker side (runs in the forked child)
    # ------------------------------------------------------------------
    def _worker_step(self, epoch, step, slot, rank, start, stop, n):
        """One shard: forward, backward, weighted flat gradient write."""
        row = self._grad_block["grads"][rank]
        mask_row = self._grad_block["mask"][rank]
        if stop <= start:
            row.fill(0)
            mask_row.fill(0)
            return 0.0, 0.0, 0
        ring = self._ring_block.arrays
        shard = SampleBatch(**{
            field: ring[f"{field}{slot}"][start:stop]
            for field in BATCH_FIELDS})
        rng = np.random.default_rng([self.seed, epoch, step, rank])
        params = self._shared.params
        for param in params:
            param.zero_grad()
        with detect_anomaly() if self.detect_anomaly \
                else contextlib.nullcontext():
            breakdown, _outputs = self.model.training_loss(shard, rng=rng)
            breakdown.total.backward()
        weight = (stop - start) / n
        for index, (param, (offset, size)) in enumerate(
                zip(params, self._shared.offsets)):
            grad = param.grad
            if grad is None:
                row[offset:offset + size] = 0
                mask_row[index] = 0
            else:
                np.multiply(grad.reshape(-1), weight,
                            out=row[offset:offset + size])
                mask_row[index] = 1
        return (float(breakdown.total.item()), float(breakdown.reg.item()),
                stop - start)
