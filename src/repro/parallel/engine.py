"""Fork-based data-parallel training engine with shared-memory allreduce.

One :class:`ParallelEngine` owns a pool of forked worker processes plus
three shared-memory regions (:mod:`repro.parallel.shm`):

- a **flat parameter buffer**: the parent rebinds every parameter's
  ``data`` to a view into it, so the in-place optimizer kernels update
  shared memory directly and every worker replica — whose parameters
  alias the same mapping through fork — sees the new weights at its
  next step with zero copies and zero pickling;
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

Synchronisation is bulk-synchronous over per-worker pipes: the parent
sends a step descriptor (slot + shard bounds — a few dozen bytes), the
workers reply with scalar losses, and the heavy arrays never cross a
pipe.  The parent only runs its optimizer step while every worker is
blocked on its pipe, so no reader ever races a writer on the shared
parameter buffer.

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

import multiprocessing
import queue
import signal
import threading
from time import perf_counter

import numpy as np

from repro.data.windows import SampleBatch
from repro.inspect import sanitizer
from repro.parallel.blas import limit_blas_threads
from repro.parallel.sharding import epoch_batches, shard_bounds
from repro.parallel.shm import SharedArrayBlock
from repro.tensor import tensor as _tensor_core

__all__ = ["ParallelEngine", "ParallelWorkerError", "worker_rank"]

_BATCH_FIELDS = ("closeness", "period", "trend", "target", "indices")

# Rank of the current process inside a ParallelEngine pool, or None in
# the parent / outside parallel training.  Module-global so test
# injectors (and user callbacks) forked into workers can tell replicas
# apart — e.g. deliver a signal to the parent from rank 0 only.
_WORKER_RANK = None


def worker_rank():
    """Rank of this process in the active worker pool; ``None`` in the parent."""
    return _WORKER_RANK


class ParallelWorkerError(RuntimeError):
    """A worker process failed (raised, or died) during parallel training."""


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
        Number of forked worker processes (>= 1).
    seed:
        Base seed for the per-``(seed, epoch, step, rank)`` worker rng
        streams handed to ``training_loss``.
    detect_anomaly:
        Run each worker's compute under
        :func:`repro.tensor.detect_anomaly`; anomalies surface as
        :class:`ParallelWorkerError` naming the op.
    blas_threads:
        BLAS thread cap applied inside each worker (default 1 — the
        workers themselves are the parallelism).
    """

    def __init__(self, model, optimizer, train, batch_size, workers,
                 seed=0, detect_anomaly=False, blas_threads=1, slots=2):
        if workers < 1:
            raise ValueError(f"workers must be >= 1; got {workers}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1; got {batch_size}")
        if slots < 2:
            raise ValueError(f"ring needs >= 2 slots; got {slots}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "repro.parallel requires the 'fork' start method (POSIX); "
                "use workers=0 on this platform")
        self.model = model
        self.optimizer = optimizer
        self.train = train
        self.batch_size = int(batch_size)
        self.workers = int(workers)
        self.seed = int(seed)
        self.detect_anomaly = bool(detect_anomaly)
        self.blas_threads = int(blas_threads)
        self.num_slots = int(slots)

        params = optimizer.parameters
        dtypes = {p.data.dtype for p in params}
        if len(dtypes) != 1:
            raise ValueError(
                f"parallel training needs a uniform parameter dtype; got "
                f"{sorted(str(d) for d in dtypes)} (use Trainer(dtype=...))")
        self._dtype = dtypes.pop()
        self._params = params
        self._offsets = []
        cursor = 0
        for p in params:
            self._offsets.append((cursor, p.size))
            cursor += p.size
        self._total = cursor

        # Telemetry (parent side).
        self.reduce_s = 0.0
        self.reduce_count = 0
        self.prefetch_stall_s = 0.0
        self.prefetch_stall_count = 0
        self.steps = 0
        self.blas_modes = []
        self.shared_bytes = 0

        self._param_block = None
        self._grad_block = None
        self._ring_block = None
        self._procs = []
        self._conns = []
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
        dtype = self._dtype
        self._param_block = SharedArrayBlock(
            {"params": ((self._total,), dtype)})
        self._grad_block = SharedArrayBlock(
            {"grads": ((self.workers, self._total), dtype),
             "mask": ((self.workers, len(self._params)), np.uint8)},
            zero=True)
        ring_spec = {}
        for slot in range(self.num_slots):
            for field in _BATCH_FIELDS:
                source = getattr(self.train, field)
                ring_spec[f"{field}{slot}"] = (
                    (self.batch_size,) + source.shape[1:], source.dtype)
        self._ring_block = SharedArrayBlock(ring_spec)
        self.shared_bytes = (self._param_block.nbytes
                             + self._grad_block.nbytes
                             + self._ring_block.nbytes)

        # Rebind parameters into the shared flat buffer (values copied
        # in).
        flat = self._param_block["params"]
        for param, (offset, size) in zip(self._params, self._offsets):
            view = flat[offset:offset + size].reshape(param.data.shape)
            view[...] = param.data
            param.data = view
            param.grad = None

        ctx = multiprocessing.get_context("fork")
        try:
            for rank in range(self.workers):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=self._worker_loop, args=(rank, child_conn),
                    name=f"repro-parallel-{rank}", daemon=True)
                proc.start()
                child_conn.close()  # the worker's end lives in the child
                self._procs.append(proc)
                self._conns.append(parent_conn)
            for rank, conn in enumerate(self._conns):
                reply = self._recv(rank, conn, timeout=30.0)
                if reply[0] != "ready":
                    raise ParallelWorkerError(
                        f"worker {rank} failed to initialise: {reply!r}")
                self.blas_modes.append(reply[2])
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

        Workers get a stop message and are joined with a timeout;
        stragglers are terminated, then killed — the guarantee is zero
        child processes on return no matter how training ended.
        Parameter values are copied back into private arrays so the
        model (checkpointing, evaluation, best-state restore) keeps
        working after the shared segment is unlinked.
        """
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - unkillable worker
                proc.kill()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        self._conns = []
        self._procs = []
        if self._param_block is not None:
            # Detach parameters from the doomed mapping first.
            for param in self._params:
                if param.data.base is not None:
                    param.data = param.data.copy()
                param.grad = None
            self._param_block.close()
            self._param_block = None
        if self._grad_block is not None:
            self._grad_block.close()
            self._grad_block = None
        if self._ring_block is not None:
            self._ring_block.close()
            self._ring_block = None

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
        for slot in range(self.num_slots):
            free.put(slot)
        stop_event = threading.Event()
        producer = sanitizer.create_thread(
            target=self._produce, args=(order, free, filled, stop_event),
            name="repro-prefetch", daemon=True)
        producer.start()
        grads = self._grad_block["grads"]
        mask = self._grad_block["mask"]
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
                bounds = shard_bounds(n, self.workers)
                for rank, conn in enumerate(self._conns):
                    start, stop = bounds[rank]
                    conn.send(("step", epoch, step, slot, start, stop, n))
                replies = [self._recv(rank, conn)
                           for rank, conn in enumerate(self._conns)]
                free.put(slot)
                failures = [(rank, r) for rank, r in enumerate(replies)
                            if r[0] != "ok"]
                if failures:
                    rank, reply = failures[0]
                    raise ParallelWorkerError(
                        f"worker {rank} failed at epoch {epoch} step {step}: "
                        f"{reply[1]}")
                begin = perf_counter()
                reduced, views = self.optimizer.flat_grads()
                np.sum(grads, axis=0, out=reduced)
                active = mask.any(axis=0)
                for index, param in enumerate(self._params):
                    param.grad = views[index] if active[index] else None
                self.reduce_s += perf_counter() - begin
                self.reduce_count += 1
                profiler = _tensor_core._PROFILER
                if profiler is not None:
                    profiler._record_parallel_step(
                        perf_counter() - begin, stall)
                    profiler.mark()
                loss = sum(r[1] * (r[3] / n) for r in replies)
                reg = sum(r[2] * (r[3] / n) for r in replies)
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
            for field in _BATCH_FIELDS:
                np.take(getattr(train, field), idx, axis=0,
                        out=ring[f"{field}{slot}"][:n])
            filled.put((step, slot, n))
        filled.put(None)

    def _recv(self, rank, conn, timeout=None):
        """Receive one message from a worker, failing fast if it died."""
        deadline = None if timeout is None else perf_counter() + timeout
        while not conn.poll(0.2):
            if not self._procs[rank].is_alive():
                raise ParallelWorkerError(
                    f"worker {rank} died (exit code "
                    f"{self._procs[rank].exitcode}) without replying")
            if deadline is not None and perf_counter() > deadline:
                raise ParallelWorkerError(
                    f"worker {rank} did not reply within {timeout:.0f}s")
        try:
            return conn.recv()
        except EOFError as exc:
            raise ParallelWorkerError(
                f"worker {rank} closed its pipe mid-step") from exc

    def telemetry(self):
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
    def _worker_loop(self, rank, conn):
        global _WORKER_RANK
        _WORKER_RANK = rank
        # The parent orchestrates shutdown over the pipe; a terminal
        # Ctrl-C lands on the whole process group, and a worker that
        # dies to it mid-step would look like a crash, not an interrupt.
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                signal.signal(signum, signal.SIG_IGN)
            except (ValueError, OSError):  # pragma: no cover
                pass
        # Parent-process instrumentation has no meaning in the worker.
        _tensor_core._clear_hooks_in_child()
        blas_mode = limit_blas_threads(self.blas_threads)
        self.model.train()
        import contextlib

        from repro.tensor import detect_anomaly
        with contextlib.ExitStack() as stack:
            if self.detect_anomaly:
                stack.enter_context(detect_anomaly())
            conn.send(("ready", rank, blas_mode))
            while True:
                try:
                    msg = conn.recv()
                except (EOFError, KeyboardInterrupt):
                    break
                if msg[0] == "stop":
                    break
                if msg[0] != "step":  # pragma: no cover - unknown command
                    continue
                _, epoch, step, slot, start, stop, n = msg
                try:
                    conn.send(("ok",) + self._worker_step(
                        rank, epoch, step, slot, start, stop, n))
                except BaseException as exc:
                    conn.send(("error", f"{type(exc).__name__}: {exc}"))
        conn.close()

    def _worker_step(self, rank, epoch, step, slot, start, stop, n):
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
            for field in _BATCH_FIELDS})
        rng = np.random.default_rng([self.seed, epoch, step, rank])
        for param in self._params:
            param.zero_grad()
        breakdown, _outputs = self.model.training_loss(shard, rng=rng)
        breakdown.total.backward()
        weight = (stop - start) / n
        for index, param in enumerate(self._params):
            offset, size = self._offsets[index]
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
