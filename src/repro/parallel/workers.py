"""One forked-worker runtime: shared parameters and a set of forked workers.

The training engine (:mod:`repro.parallel.engine`) and the serving
replica pool (:mod:`repro.serve.pool`) are message protocols on it.
:class:`SharedParams` rebinds a model's parameters into one flat
shared-memory buffer before the fork, so an in-place write in the
parent (an optimizer step, a checkpoint install) reaches every child
with no copy.  :class:`WorkerSet` owns the children's lifecycle: fork
and ``ready`` handshake, the child bootstrap, message rounds, elastic
``scale_to``, and teardown.

The reply rule: a round sends one message to every live worker and
reads every reply before it returns or raises, so no reply is ever
read as the answer to a later round.  Dead workers are evicted, and
the round raises :class:`ParallelWorkerError` naming each failed
worker with its exit code or error text.  Teardown gives all children
one shared grace period (:data:`_GRACE_S`) after their stop message,
then SIGKILLs the rest; children ignore SIGTERM, so there is no
terminate step.
"""

from __future__ import annotations

import itertools
import multiprocessing
import signal
from dataclasses import dataclass
from time import perf_counter

from repro.inspect import sanitizer
from repro.parallel.blas import limit_blas_threads
from repro.parallel.shm import SharedArrayBlock
from repro.tensor import tensor as _tensor_core

__all__ = ["ParallelWorkerError", "SharedParams", "WorkerSet", "worker_rank"]

#: Seconds all children share, on one deadline, to exit after their stop
#: message before the survivors are SIGKILLed.
_GRACE_S = 5.0

#: Seconds a freshly forked child has to report ``ready``.
_READY_TIMEOUT_S = 30.0

# Rank of this process inside a WorkerSet (None in the parent), so code
# forked into a worker — test injectors, user callbacks — can tell
# workers apart.
_WORKER_RANK = None


def worker_rank():
    """Rank of this process in its worker set; ``None`` in the parent."""
    return _WORKER_RANK


class ParallelWorkerError(RuntimeError):
    """A forked worker raised, or died, while the parent waited on it."""


class SharedParams:
    """A model's parameters rebound into one flat shared-memory buffer.

    ``params`` fixes the flattening order (``offsets`` holds each
    parameter's ``(offset, size)``); all must share one floating dtype.
    :meth:`bind` copies the values in and points every parameter's
    ``data`` at its view — call it before forking.  :meth:`close`
    (idempotent) copies the current values back into private arrays and
    unlinks the segment, so the model outlives the workers.
    """

    def __init__(self, params):
        self.params = list(params)
        if not self.params:
            raise ValueError("model exposes no parameters to share")
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) != 1:
            raise ValueError(
                f"forked workers need a uniform parameter dtype; got "
                f"{sorted(str(d) for d in dtypes)} (set TrainConfig(dtype=...))")
        self.dtype = dtypes.pop()
        self.offsets = []
        total = 0
        for p in self.params:
            self.offsets.append((total, p.size))
            total += p.size
        self.total = total
        self._block = None

    @property
    def nbytes(self):
        """Size of the shared segment (0 while unbound)."""
        return self._block.nbytes if self._block is not None else 0

    def bind(self):
        """Move every parameter into the shared buffer (values copied in)."""
        self._block = SharedArrayBlock({"params": ((self.total,), self.dtype)})
        flat = self._block["params"]
        for param, (offset, size) in zip(self.params, self.offsets):
            view = flat[offset:offset + size].reshape(param.data.shape)
            view[...] = param.data
            param.data = view
            param.grad = None
        return self

    def close(self):
        """Copy the values back into private arrays and unlink the segment."""
        if self._block is None:
            return
        for param in self.params:
            if param.data.base is not None:
                param.data = param.data.copy()
            param.grad = None
        self._block.close()
        self._block = None


@dataclass(eq=False)
class _Worker:
    """Parent-side handle of one forked child."""

    label: str
    rank: int
    proc: multiprocessing.Process
    conn: object
    blas_mode: str | None = None


def _recv(worker, deadline=None):
    """The worker's next reply; ``None`` once it died or ``deadline`` passed."""
    while not worker.conn.poll(0.2):
        if not worker.proc.is_alive() or (
                deadline is not None and perf_counter() > deadline):
            return None
    try:
        return worker.conn.recv()
    except (EOFError, OSError):  # closed its pipe: exiting
        return None


def _stop(workers):
    """Stop ``workers`` within one shared grace period, then SIGKILL the rest."""
    for worker in workers:
        try:
            worker.conn.send(None)
        except OSError:  # already dead
            pass
    deadline = perf_counter() + _GRACE_S
    for worker in workers:
        worker.proc.join(max(0.0, deadline - perf_counter()))
    for worker in workers:
        if worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join(_GRACE_S)
        worker.conn.close()


class WorkerSet:
    """Forked children that each run one message handler, and their lifecycle.

    Parameters
    ----------
    handle:
        Runs in a child as ``handle(*message)`` for every message it
        receives; the return value is the reply.  An exception becomes
        an error reply and the child keeps serving.
    kind:
        What a child is called in process names and error messages
        (``"worker"``, ``"replica"``).
    setup:
        Optional callable run once in each child before it reports
        ``ready`` (e.g. ``model.train``).

    Each child caps BLAS at one thread: the children are the
    parallelism.

    Rounds, scaling and close are safe to call from different threads;
    they serialise on the set's lock, and the fork runs with no lock
    held.
    """

    def __init__(self, handle, kind, setup=None):
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "forked workers need the 'fork' start method (POSIX); run "
                "in process (workers=0 / replicas=0) on this platform")
        self._handle = handle
        self._kind = kind
        self._setup = setup
        self._lock = sanitizer.create_lock("WorkerSet._lock")
        self._live = []
        self._closed = False

    @property
    def size(self):
        """Number of live workers."""
        with self._lock:
            return len(self._live)

    @property
    def blas_modes(self):
        """The BLAS cap mechanism each live worker reported, in order."""
        with self._lock:
            return [worker.blas_mode for worker in self._live]

    def scale_to(self, count):
        """Fork or stop workers until ``count`` are live; returns the live count.

        Surplus workers (the last ones in order) leave between rounds
        and are stopped outside the lock.  New workers fork and
        handshake with no lock held — rounds on the live workers go on
        meanwhile — and join between rounds.  A worker gets the lowest
        rank no live worker holds.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError(f"{self._kind} set is not running")
            surplus = self._live[count:]
            del self._live[count:]
            missing = count - len(self._live)
            taken = {worker.rank for worker in self._live}
        _stop(surplus)
        if missing <= 0:
            return count
        free = (rank for rank in itertools.count() if rank not in taken)
        fresh = self._spawn(list(itertools.islice(free, missing)))
        with self._lock:
            if not self._closed:
                self._live.extend(fresh)
                return len(self._live)
        _stop(fresh)
        raise RuntimeError(f"{self._kind} set closed while scaling up")

    def _spawn(self, ranks):
        """Fork one child per rank and wait for each to report ``ready``."""
        ctx = multiprocessing.get_context("fork")
        fresh = []
        try:
            for rank in ranks:
                conn, child_conn = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=self._child_main, args=(rank, child_conn),
                    name=f"repro-{self._kind}-{rank}", daemon=True)
                proc.start()
                child_conn.close()  # the child's end lives in the child
                fresh.append(_Worker(f"{self._kind} {rank}", rank, proc, conn))
            deadline = perf_counter() + _READY_TIMEOUT_S
            for worker in fresh:
                reply = _recv(worker, deadline)
                if reply is None or reply[0] != "ready":
                    break
                worker.blas_mode = reply[1]
            else:
                return fresh
        except BaseException:
            _stop(fresh)
            raise
        _stop(fresh)
        detail = reply[1] if reply is not None \
            else f"exit code {worker.proc.exitcode}"
        raise ParallelWorkerError(f"{worker.label} failed to start: {detail}")

    def round(self, messages):
        """Send every live worker one message; returns their replies in order.

        ``messages(count)`` builds the ``count`` argument tuples, one per
        live worker, under the set's lock, so a concurrent
        :meth:`scale_to` cannot change the layout mid-round.  Every
        worker that was sent a message has its reply read before this
        returns or raises.  Workers that died are evicted; then, if any
        worker died or raised, :class:`ParallelWorkerError` names each.
        """
        with self._lock:
            live = list(self._live)
            if not live:
                raise ParallelWorkerError(f"no live {self._kind} left")
            for worker, message in zip(live, messages(len(live))):
                try:
                    worker.conn.send(message)
                except OSError:  # died since the last round: _recv sees EOF
                    pass
            replies = [_recv(worker) for worker in live]
            dead = [w for w, reply in zip(live, replies) if reply is None]
            if dead:
                self._live = [w for w in live if w not in dead]
                _stop(dead)
        failures = [
            f"{w.label} died (exit code {w.proc.exitcode})" if reply is None
            else f"{w.label} failed: {reply[1]}"
            for w, reply in zip(live, replies)
            if reply is None or reply[0] != "ok"]
        if failures:
            raise ParallelWorkerError("; ".join(failures))
        return [reply[1] for reply in replies]

    def close(self):
        """Stop every worker within one shared grace period (idempotent)."""
        with self._lock:
            self._closed = True
            live, self._live = self._live, []
        _stop(live)

    def _child_main(self, rank, conn):
        """Bootstrap and receive loop of a forked child."""
        global _WORKER_RANK
        _WORKER_RANK = rank
        # The parent stops children over the pipe; a terminal Ctrl-C
        # reaches the whole process group, and a child that died of it
        # mid-round would look like a crash, not an interrupt.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        # Parent-process instrumentation has no meaning in the child.
        _tensor_core._clear_hooks_in_child()
        try:
            blas_mode = limit_blas_threads(1)
            if self._setup is not None:
                self._setup()
            reply = ("ready", blas_mode)
        except Exception as exc:
            reply = ("error", f"{type(exc).__name__}: {exc}")
        conn.send(reply)
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            try:
                reply = ("ok", self._handle(*message))
            except Exception as exc:
                reply = ("error", f"{type(exc).__name__}: {exc}")
            conn.send(reply)
        conn.close()
