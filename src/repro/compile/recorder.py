"""Kernel recording: capture one step as an in-place replay schedule.

A :class:`Recorder` is installed as the ``recorder`` field of the
recording thread's hooks (``repro.tensor.tensor._THREAD.hooks``; the
compilers install one around the step they record).  While active,
every op site on that thread registers a *refresh record* describing
how to recompute its output buffer in place; ops on other threads
never see it, so they add no record and draw nothing from its private
scratch pool:

``_Spec``
    A single ``out=``-dispatched numpy call — ``fn(*srcs, out=out,
    **kwargs)``.  Specs are the fusable common case (elementwise ops,
    matmul, plain reductions); consecutive specs compile into one fused
    chain with no per-op bookkeeping at replay time.
``_Run``
    An opaque closure for ops with auxiliary state (tie masks, scales,
    conv scratch packing).  ``reads``/``writes`` list the arrays the
    closure touches, for liveness analysis.
``_View``
    A no-op marker: the op's output aliases its input's memory, so
    refreshing the input refreshes the output.  Recorded so arena
    planners know the base buffer escapes through an alias.
``_Rng``
    A draw from a captured ``numpy.random.Generator`` *object*.  Replay
    draws in schedule order, consuming the exact stream the eager step
    would have.

Safety net: ``_from_op`` pings :meth:`Recorder._on_op` for every op
*before* the op site (maybe) registers its record.  An op with no
registered kernel leaves the ping unclaimed, which marks the recording
as failed — the compiler then falls back to eager instead of silently
replaying stale buffers.  The recorder is passive: a failed recording
never corrupts the eager step that was running under it.
"""

from __future__ import annotations

from repro.tensor.scratch import ScratchPool

__all__ = ["Recorder"]


class _Spec:
    """One ``fn(*srcs, out=out, **kwargs)`` dispatch (fusable)."""

    __slots__ = ("fn", "srcs", "out", "kwargs")

    def __init__(self, fn, srcs, out, kwargs):
        self.fn = fn
        self.srcs = srcs
        self.out = out
        self.kwargs = kwargs

    def execute(self):
        self.fn(*self.srcs, out=self.out, **self.kwargs)


class _Run:
    """An opaque refresh closure with declared reads/writes."""

    __slots__ = ("fn", "reads", "writes")

    def __init__(self, fn, reads, writes):
        self.fn = fn
        self.reads = reads
        self.writes = writes

    def execute(self):
        self.fn()


class _View:
    """Output aliases ``base``'s memory; nothing to execute."""

    __slots__ = ("out", "base")

    def __init__(self, out, base):
        self.out = out
        self.base = base


class _Rng:
    """A generator draw; replay consumes the same stream in order."""

    __slots__ = ("fn", "writes")

    def __init__(self, fn, writes):
        self.fn = fn
        self.writes = writes

    def execute(self):
        self.fn()


class Recorder:
    """Collects replay records for one recorded step.

    Attributes
    ----------
    records:
        The schedule, in program order.
    scratch:
        A private :class:`~repro.tensor.scratch.ScratchPool`.  Replay
        kernels capture scratch buffers by reference, so the plan owns
        its pool outright — it doubles as the single persistent im2col
        scratch shared by every conv call in the plan.
    failure:
        ``None`` while the recording is viable, else the first reason
        it is not (an op without a replay kernel).
    """

    def __init__(self):
        self.records = []
        self.scratch = ScratchPool()
        self.failure = None
        self._pending = None

    # -- hook called by Tensor._from_op -------------------------------
    def _on_op(self, name, out, parents):
        if self._pending is not None:
            self.fail(f"op '{self._pending}' registered no replay kernel")
        self._pending = name

    def fail(self, reason):
        """Mark the recording unusable (first reason wins)."""
        if self.failure is None:
            self.failure = reason
        self._pending = None

    # -- records registered by op sites -------------------------------
    def ufunc(self, fn, srcs, out, **kwargs):
        """Register a fusable ``fn(*srcs, out=out, **kwargs)`` refresh."""
        self._pending = None
        self.records.append(_Spec(fn, tuple(srcs), out, kwargs))

    def run(self, fn, reads=(), writes=()):
        """Register an opaque refresh closure."""
        self._pending = None
        self.records.append(_Run(fn, tuple(reads), tuple(writes)))

    def view(self, out, base):
        """Register that ``out`` aliases ``base`` (no refresh needed)."""
        self._pending = None
        self.records.append(_View(out, base))

    def leaf(self, fn, reads=(), writes=()):
        """Register a refresh for a data-dependent *leaf* tensor.

        Leaves never fire ``_on_op`` so this does not claim a pending
        op (e.g. logsumexp's shift, created between two recorded ops).
        """
        self.records.append(_Run(fn, tuple(reads), tuple(writes)))

    def rng(self, fn, writes=()):
        """Register a generator draw (non-claiming, like :meth:`leaf`)."""
        self.records.append(_Rng(fn, tuple(writes)))

    # ------------------------------------------------------------------
    def finalize(self):
        """Close the recording; returns the failure reason or ``None``."""
        if self._pending is not None:
            self.fail(f"op '{self._pending}' registered no replay kernel")
        return self.failure

