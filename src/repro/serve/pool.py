"""Forked replica pool for serving: weights once per host, hot-swappable.

Reuses the two load-bearing ideas of :mod:`repro.parallel`:

- **One flat parameter buffer.**  Before forking, every model parameter
  is rebound to a view into a single shared-memory block
  (:class:`~repro.parallel.shm.SharedArrayBlock`).  The forked replicas
  alias the same mapping, so a 47M-parameter model costs its weight
  bytes *once* per host no matter how many replicas serve it — and a
  checkpoint hot-swap is one in-place write into that block, not a
  per-replica broadcast.
- **BSP-style dispatch.**  The parent only writes the parameter buffer
  (checkpoint install) while every replica is idle, and replicas only
  read it while the parent waits on their pipes.  A **generation
  counter** in the same shared block is bumped after each install;
  every reply carries the generation it served, so a response can never
  correspond to a torn half-old/half-new parameter state.

A ``predict`` call shards the coalesced batch contiguously across
replicas (``shard_bounds``), each replica computes its rows of the
shared output slot, and the parent returns them in rank order — row
``i`` of the result is sample ``i`` of the request, same as a
single-process forward.
"""

from __future__ import annotations

import multiprocessing
import signal

import numpy as np

from repro.data.windows import SampleBatch
from repro.inspect import sanitizer
from repro.parallel.blas import limit_blas_threads
from repro.parallel.engine import ParallelWorkerError
from repro.parallel.sharding import shard_bounds
from repro.parallel.shm import SharedArrayBlock
from repro.tensor import no_grad
from repro.tensor import tensor as _tensor_core

__all__ = ["ReplicaPool"]

_BATCH_FIELDS = ("closeness", "period", "trend", "target", "indices")


def _handshake(proc, conn, timeout):
    """Wait for a newly forked replica's ``ready`` reply.

    Module-level on purpose: the scale-up path runs it *outside* the
    dispatch lock (forking and handshaking must not stall serving), so
    it must not touch pool state at all.
    """
    from time import perf_counter
    deadline = perf_counter() + timeout
    while not conn.poll(0.2):
        if not proc.is_alive():
            raise ParallelWorkerError(
                f"replica {proc.name} died (exit code {proc.exitcode}) "
                "during startup")
        if perf_counter() > deadline:
            raise ParallelWorkerError(
                f"replica {proc.name} did not initialise within "
                f"{timeout:.0f}s")
    try:
        return conn.recv()
    except EOFError as exc:
        raise ParallelWorkerError(
            f"replica {proc.name} closed its pipe during startup") from exc


def _stop_replicas(procs, conns):
    """Stop a set of replica processes and close their pipes.

    Cooperative stop first, escalating to terminate/kill for hung
    children; used by both full teardown and scale-down, so a shrunk
    pool can never leak an orphan process.
    """
    for conn in conns:
        try:
            conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
    for proc in procs:
        proc.join(timeout=5.0)
    for proc in procs:
        if proc.is_alive():  # pragma: no cover - hung replica
            proc.terminate()
            proc.join(timeout=1.0)
        if proc.is_alive():  # pragma: no cover - unkillable
            proc.kill()
            proc.join(timeout=1.0)
    for conn in conns:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


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
        Number of forked replica processes (>= 1).
    max_batch:
        Capacity of the shared request slot (the batcher's cap).
    blas_threads:
        BLAS thread cap inside each replica (default 1; the replicas
        are the parallelism).
    """

    def __init__(self, model, template: SampleBatch, replicas, max_batch,
                 blas_threads=1):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1; got {replicas}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1; got {max_batch}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "repro.serve replicas require the 'fork' start method "
                "(POSIX); use replicas=0 on this platform")
        self.model = model
        self.replicas = int(replicas)
        self.max_batch = int(max_batch)
        self.blas_threads = int(blas_threads)

        self._params = model.parameters()
        if not self._params:
            raise ValueError("model exposes no parameters to share")
        dtypes = {p.data.dtype for p in self._params}
        if len(dtypes) != 1:
            raise ValueError(
                f"replica pool needs a uniform parameter dtype; got "
                f"{sorted(str(d) for d in dtypes)}")
        self._dtype = dtypes.pop()
        self._offsets = []
        cursor = 0
        for p in self._params:
            self._offsets.append((cursor, p.size))
            cursor += p.size
        self._total = cursor

        self._template = template
        self._lock = sanitizer.create_lock("ReplicaPool._lock")
        self._param_block = None
        self._io_block = None
        self._procs = []
        self._conns = []
        self._started = False
        self._closed = False
        self.blas_modes = []
        self.shared_bytes = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Publish weights to shared memory and fork the replicas."""
        if self._started:
            raise RuntimeError("pool already started")
        self._started = True
        self._param_block = SharedArrayBlock({
            "params": ((self._total,), self._dtype),
            "generation": ((1,), np.int64),
        })
        flat = self._param_block["params"]
        for param, (offset, size) in zip(self._params, self._offsets):
            view = flat[offset:offset + size].reshape(param.data.shape)
            view[...] = param.data
            param.data = view
            param.grad = None
        self._param_block["generation"][0] = 0

        io_spec = {}
        for field in _BATCH_FIELDS:
            source = getattr(self._template, field)
            io_spec[field] = ((self.max_batch,) + source.shape[1:],
                              source.dtype)
        io_spec["out"] = ((self.max_batch,) + self._template.target.shape[1:],
                          self._dtype)
        self._io_block = SharedArrayBlock(io_spec)
        self.shared_bytes = self._param_block.nbytes + self._io_block.nbytes

        try:
            procs, conns, modes = self._fork_replicas(range(self.replicas))
            self._procs.extend(procs)
            self._conns.extend(conns)
            self.blas_modes.extend(modes)
        except BaseException:
            self.close()
            raise
        return self

    def _fork_replicas(self, ranks):
        """Fork + handshake replicas for ``ranks``; no pool locks held.

        Returns ``(procs, conns, blas_modes)`` fully initialised — every
        child has sent ``ready`` — or tears the partial set down and
        re-raises.  The new children are *not* registered with the pool;
        the caller does that (under the dispatch lock for scale-up).
        """
        ctx = multiprocessing.get_context("fork")
        procs, conns = [], []
        try:
            for rank in ranks:
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=self._replica_loop, args=(rank, child_conn),
                    name=f"repro-serve-{rank}", daemon=True)
                proc.start()
                child_conn.close()
                procs.append(proc)
                conns.append(parent_conn)
            modes = []
            for proc, conn in zip(procs, conns):
                reply = _handshake(proc, conn, timeout=30.0)
                if reply[0] != "ready":
                    raise ParallelWorkerError(
                        f"replica {proc.name} failed to initialise: "
                        f"{reply!r}")
                modes.append(reply[2])
        except BaseException:
            _stop_replicas(procs, conns)
            raise
        return procs, conns, modes

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
        it across the bounded joins cannot deadlock.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            _stop_replicas(self._procs, self._conns)
            self._conns = []
            self._procs = []
            if self._param_block is not None:
                # Re-privatise the weights so the model outlives the
                # pool.
                for param in self._params:
                    if param.data.base is not None:
                        param.data = param.data.copy()
                    param.grad = None
                self._param_block.close()
                self._param_block = None
            if self._io_block is not None:
                self._io_block.close()
                self._io_block = None

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    @property
    def generation(self):
        """Parameter-buffer generation (bumps once per checkpoint install)."""
        with self._lock:
            if self._param_block is None:
                raise RuntimeError("pool is not running")
            return int(self._param_block["generation"][0])

    def predict(self, batch: SampleBatch):
        """One batched forward, sharded across the replicas.

        Returns ``(predictions, generation)`` where row ``i`` of
        ``predictions`` is the forecast for sample ``i`` and
        ``generation`` is the parameter generation that served the
        whole batch.  A request larger than the shared slot capacity is
        served in ``max_batch`` chunks *under the same lock*, so even
        an oversized request is answered by exactly one generation —
        the install path cannot interleave with any part of it.
        """
        n = len(batch)
        if n == 0:
            raise ValueError("cannot serve an empty batch")
        with self._lock:
            if self._closed or not self._started:
                raise RuntimeError("pool is not running")
            # Inline read: the generation property takes the (non-
            # reentrant) dispatch lock, which this thread already holds.
            generation = int(self._param_block["generation"][0])
            generations = set()
            pieces = []
            for begin in range(0, n, self.max_batch):
                pieces.append(self._predict_chunk(
                    batch.slice(begin, begin + self.max_batch), generations))
            prediction = pieces[0] if len(pieces) == 1 \
                else np.concatenate(pieces, axis=0)
        # Every shard of every chunk must have been served by the live
        # generation: installs are mutually excluded with this call.
        assert generations <= {generation}
        return prediction, generation

    def _predict_chunk(self, chunk, generations):
        """Shard one slot-sized chunk across the replicas (lock held)."""
        n = len(chunk)
        io = self._io_block.arrays
        for field in _BATCH_FIELDS:
            io[field][:n] = getattr(chunk, field)
        bounds = shard_bounds(n, self.replicas)
        for rank, conn in enumerate(self._conns):
            start, stop = bounds[rank]
            conn.send(("predict", start, stop))
        for rank, conn in enumerate(self._conns):
            reply = self._recv(rank, conn)
            if reply[0] != "ok":
                raise ParallelWorkerError(
                    f"replica {rank} failed: {reply[1]}")
            generations.add(reply[1])
        return io["out"][:n].copy()

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
            self._param_block["generation"][0] += 1
            return int(self._param_block["generation"][0])

    # ------------------------------------------------------------------
    # Elastic scaling
    # ------------------------------------------------------------------
    @property
    def size(self):
        """Live replica count (scaling changes it; :attr:`replicas` tracks)."""
        with self._lock:
            return len(self._procs)

    def scale_to(self, replicas):
        """Grow or shrink the pool to ``replicas`` live processes.

        Scaling never tears parameter state: new replicas fork from the
        parent and alias the *same* shared parameter block (MAP_SHARED
        survives fork), so they serve the current generation from their
        first request — no weight copy, no broadcast, no generation
        skew.  Shrinking stops the highest ranks under the dispatch
        lock, so an in-flight ``predict`` either completes on the old
        shard layout or starts on the new one, never half of each.

        Growth forks and handshakes the new children *outside* the
        dispatch lock — serving continues on the old replicas while the
        new ones come up — and registers them under the lock once they
        are ready.  Not safe to call concurrently with itself (the
        autoscaler is a single thread); safe against concurrent
        ``predict``/``install``/``close``.

        Returns the new live replica count.
        """
        replicas = int(replicas)
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1; got {replicas}")
        with self._lock:
            if self._closed or not self._started:
                raise RuntimeError("pool is not running")
            current = len(self._procs)
            if replicas == current:
                return current
            if replicas < current:
                removed_procs = self._procs[replicas:]
                removed_conns = self._conns[replicas:]
                del self._procs[replicas:]
                del self._conns[replicas:]
                del self.blas_modes[replicas:]
                self.replicas = replicas
                # Same discipline as close(): replicas never take this
                # lock, so stopping them while holding it cannot
                # deadlock, and no dispatch can race the teardown.
                _stop_replicas(removed_procs, removed_conns)
                return replicas
        # Scale-up: fork with no pool lock held (fork-safety — a child
        # must never inherit a held lock) and while serving continues.
        procs, conns, modes = self._fork_replicas(
            range(current, replicas))
        with self._lock:
            if not self._closed and self._started \
                    and len(self._procs) == current:
                self._procs.extend(procs)
                self._conns.extend(conns)
                self.blas_modes.extend(modes)
                self.replicas = len(self._procs)
                return self.replicas
        # Lost the race with close() (or a concurrent scale, which the
        # contract forbids): the spawned children must not outlive the
        # decision, so stop them before reporting failure.
        _stop_replicas(procs, conns)
        raise RuntimeError("pool closed while scaling up")

    def _recv(self, rank, conn, timeout=None):
        from time import perf_counter
        deadline = None if timeout is None else perf_counter() + timeout
        while not conn.poll(0.2):
            if not self._procs[rank].is_alive():
                raise ParallelWorkerError(
                    f"replica {rank} died (exit code "
                    f"{self._procs[rank].exitcode}) without replying")
            if deadline is not None and perf_counter() > deadline:
                raise ParallelWorkerError(
                    f"replica {rank} did not reply within {timeout:.0f}s")
        try:
            return conn.recv()
        except EOFError as exc:
            raise ParallelWorkerError(
                f"replica {rank} closed its pipe mid-request") from exc

    # ------------------------------------------------------------------
    # Replica side (runs in the forked child)
    # ------------------------------------------------------------------
    def _replica_loop(self, rank, conn):
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                signal.signal(signum, signal.SIG_IGN)
            except (ValueError, OSError):  # pragma: no cover
                pass
        _tensor_core._clear_hooks_in_child()
        blas_mode = limit_blas_threads(self.blas_threads)
        self.model.eval()
        # Forked child: the parent's dispatch lock has no meaning here —
        # BSP message ordering (parent sends "predict" only while every
        # replica is idle) is what excludes concurrent access.
        io = self._io_block.arrays  # lint: ignore[guarded-field]
        gen = self._param_block["generation"]  # lint: ignore[guarded-field]
        conn.send(("ready", rank, blas_mode))
        while True:
            try:
                msg = conn.recv()
            except (EOFError, KeyboardInterrupt):
                break
            if msg[0] == "stop":
                break
            if msg[0] != "predict":  # pragma: no cover - unknown command
                continue
            _, start, stop = msg
            try:
                if stop > start:
                    shard = SampleBatch(**{
                        field: io[field][start:stop]
                        for field in _BATCH_FIELDS})
                    with no_grad():
                        io["out"][start:stop] = self.model.predict(shard)
                conn.send(("ok", int(gen[0])))
            except BaseException as exc:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
        conn.close()
