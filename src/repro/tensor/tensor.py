"""Core reverse-mode autodiff tensor.

This module provides the :class:`Tensor` class, a thin wrapper around a
``numpy.ndarray`` that records the operations applied to it so that
gradients can be computed with a single call to :meth:`Tensor.backward`.

The design follows the classic "tape by closure" pattern: every
operation returns a new ``Tensor`` whose ``_backward`` attribute is a
closure that, given the upstream gradient, deposits gradients into the
operation's inputs.  ``backward()`` walks the graph in reverse
topological order and invokes those closures.

Only the graph bookkeeping lives here; the actual operations are
implemented in the sibling modules (:mod:`repro.tensor.ops`,
:mod:`repro.tensor.matmul`, :mod:`repro.tensor.reductions`,
:mod:`repro.tensor.shape`, :mod:`repro.tensor.conv`) and attached to
``Tensor`` as methods by :mod:`repro.tensor` at import time.
"""

from __future__ import annotations

import contextlib
import threading
from time import perf_counter

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "set_default_dtype",
    "get_default_dtype",
    "default_dtype",
    "as_tensor",
]

_DEFAULT_DTYPE = np.float64


class _Hooks:
    """One thread's grad mode and instrumentation hooks.

    ``grad_enabled``
        Whether ops record the autodiff tape (:func:`no_grad`).
    ``profiler``
        The active op profiler (:func:`repro.profiling.profile`).
    ``anomaly``
        A callable ``(phase, name, array, parents)`` that raises on a
        non-finite value (:func:`repro.tensor.detect_anomaly`).
    ``trace``
        A callable ``(name, out, parents)`` fired for every op result
        (:class:`repro.inspect.trace.GraphTracer`).
    ``module_call``
        A callable ``(module, forward, args, kwargs) -> result`` that
        wraps every ``Module.__call__`` (the same tracer).
    ``recorder``
        The active kernel recorder (:class:`repro.compile.Recorder`):
        every op site registers its refresh kernel with it.
    """

    __slots__ = ("grad_enabled", "profiler", "anomaly", "trace",
                 "module_call", "recorder")

    def __init__(self):
        self.grad_enabled = True
        self.profiler = None
        self.anomaly = None
        self.trace = None
        self.module_call = None
        self.recorder = None


class _PerThread(threading.local):
    def __init__(self):
        self.hooks = _Hooks()


# Every field is *per thread*, like torch's grad mode: a hook sees only
# the ops of the thread that installed it, so the stream runtime's
# forecast threads and its retrain thread never switch off, profile,
# check, trace or record each other's ops.  Threads start with the
# defaults.  A hot path reads ``_THREAD.hooks`` once, then plain slot
# attributes: a thread-local lookup costs several slot loads.
_THREAD = _PerThread()


@contextlib.contextmanager
def _installed(**fields):
    """Set ``fields`` of this thread's hooks for a block, then restore them.

    ``no_grad``, ``profile``, ``detect_anomaly``, the graph tracer and
    the compilers install through this; nesting restores each field's
    previous value on exit, raise or not.
    """
    hooks = _THREAD.hooks
    previous = {name: getattr(hooks, name) for name in fields}
    for name, value in fields.items():
        setattr(hooks, name, value)
    try:
        yield
    finally:
        for name, value in previous.items():
            setattr(hooks, name, value)


def _clear_hooks_in_child():
    """Reset this thread's hooks, grad mode included, in a forked child.

    A forked worker or replica inherits the forking thread's hooks;
    none has a meaning there (a parent-side profiler would count child
    ops into a copy nobody reads, a recorder would capture kernels into
    a plan that is never replayed).  The child re-enables what it needs
    itself, e.g. anomaly mode when its engine was configured with it.
    """
    _THREAD.hooks = _Hooks()


def _free_tape(order):
    """Drop the backward closure and parent links of every node in ``order``.

    Releases the buffers the closures capture; a later ``backward()``
    through a freed node raises.  The thread's profiler, if any, takes
    the freed bytes off its tape count.
    """
    profiler = _THREAD.hooks.profiler
    for node in order:
        if node._backward is not None:
            if profiler is not None:
                profiler._record_tape_free(node.data.nbytes)
            node._backward = None
            node._parents = ()
            node._freed = True


def set_default_dtype(dtype):
    """Set the dtype used when constructing tensors from Python data.

    ``float64`` (the default) is what the gradient-checking tests use;
    models switch to ``float32`` for speed.  Only floating dtypes are
    valid — the policy governs *compute* precision, not index arrays.
    """
    global _DEFAULT_DTYPE
    resolved = np.dtype(dtype)
    if resolved.kind != "f":
        raise ValueError(f"default dtype must be floating point; got {resolved}")
    _DEFAULT_DTYPE = resolved.type


def get_default_dtype():
    """Return the dtype currently used for new tensors."""
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def default_dtype(dtype):
    """Scope the tensor-construction dtype policy to a block.

    The trainer runs its fit loop under ``default_dtype(np.float32)``
    when single precision is requested, while gradient checking pins
    ``float64`` the same way — the policy composes by nesting and always
    restores the previous dtype on exit.
    """
    global _DEFAULT_DTYPE
    previous = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        _DEFAULT_DTYPE = previous


def is_grad_enabled():
    """Return ``True`` when operations should record the autodiff tape.

    The flag is thread-local: disabling gradients on one thread never
    affects tape recording on any other.
    """
    return _THREAD.hooks.grad_enabled


def no_grad():
    """Context manager that disables gradient recording on this thread.

    Inside the block every operation behaves like plain numpy: outputs
    have ``requires_grad=False`` and no backward closures are created.
    Use it for evaluation loops and data preprocessing.  The state is
    per-thread, so an eval loop cannot disable the tape under a
    concurrently-running training step.
    """
    return _installed(grad_enabled=False)


class Tensor:
    """A numpy array plus the bookkeeping needed for backpropagation.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts.  Floating point inputs keep
        their dtype; Python scalars/lists are converted to the default
        dtype (see :func:`set_default_dtype`).
    requires_grad:
        When ``True`` the tensor accumulates gradients during
        :meth:`backward`.
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "_freed", "_grad_buf", "name")

    def __init__(self, data, requires_grad=False, name=None):
        if isinstance(data, Tensor):
            data = data.data
        if isinstance(data, (np.ndarray, np.generic)):
            # Explicit numpy data keeps its floating dtype (a float32
            # array stays float32 regardless of the policy).
            array = np.asarray(data)
            if array.dtype.kind not in "fc":
                array = array.astype(_DEFAULT_DTYPE)
        else:
            # Python scalars and (nested) sequences follow the policy
            # dtype, so `Tensor(0.5)` is float32 under a float32 policy.
            array = np.asarray(data)
            if array.dtype.kind != "c" and array.dtype != _DEFAULT_DTYPE:
                array = array.astype(_DEFAULT_DTYPE)
        self.data = array
        self.grad = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward = None
        self._parents = ()
        self._freed = False
        # The gradient buffer, kept across zero_grad(): the next first
        # deposit copies into it instead of allocating.  An optimizer
        # points it at its flat gradient arena (repro.optim.Optimizer).
        self._grad_buf = None
        self.name = name

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self):
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self):
        """Number of dimensions of the underlying array."""
        return self.data.ndim

    @property
    def size(self):
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self):
        """Dtype of the underlying array."""
        return self.data.dtype

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        label = f" name={self.name!r}" if self.name else ""
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad}{label})"

    # ------------------------------------------------------------------
    # Graph construction helpers (used by the op modules)
    # ------------------------------------------------------------------
    @classmethod
    def _from_op(cls, data, parents, backward, name=None):
        """Build a graph node from an op result.

        ``parents`` is the tuple of input tensors, ``backward`` the
        closure mapping the upstream gradient to per-parent gradient
        deposits.  When gradients are globally disabled or no parent
        requires them, the result is a detached leaf.
        """
        out = cls(data, name=name)
        hooks = _THREAD.hooks
        if hooks.anomaly is not None:
            # Check *before* the result joins the tape or the profiler's
            # accounting: when the hook raises, the failed op must leave
            # no state behind — tape bytes recorded here would never be
            # freed and would poison later clean runs.
            hooks.anomaly("forward", name or "op", out.data, parents)
        on_tape = False
        if hooks.grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
            on_tape = True
        if hooks.profiler is not None:
            # A view result (reshape/transpose/basic getitem) shares its
            # parent's buffer; only owned buffers count as forward
            # allocations.
            hooks.profiler._record_forward(
                name or "op", out.data.nbytes, on_tape,
                alloc_bytes=out.data.nbytes if out.data.base is None else 0)
        if hooks.trace is not None:
            hooks.trace(name or "op", out, parents)
        if hooks.recorder is not None:
            hooks.recorder._on_op(name or "op", out, parents)
        return out

    def _accumulate_grad(self, grad):
        """Add ``grad`` into ``self.grad``; the first deposit overwrites.

        While ``grad is None`` (a new tensor, or after :meth:`zero_grad`)
        the deposit is copied into the persistent buffer ``_grad_buf``
        and that buffer becomes ``grad``; later deposits add into it.
        Only a tensor without a buffer of its own shape and dtype
        allocates one, which is what the profiler's
        ``grad_alloc_bytes`` counts.  So a training loop's parameter
        gradients are allocated by the first backward (or owned by the
        optimizer's arena) and overwritten in place by every later one,
        eager and compiled replay alike.

        The buffer is always in — and accumulation stays in — this
        tensor's own dtype: a float64 upstream gradient deposited into
        a float32 parameter is cast at the boundary rather than
        silently widening the gradient buffer.
        """
        if not self.requires_grad:
            return
        grad = np.asarray(grad)
        data = self.data
        if grad.shape != data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor shape "
                f"{data.shape} (tensor {self.name or '<unnamed>'})"
            )
        if self.grad is not None:
            # In-place add keeps the buffer's dtype; "unsafe" permits
            # the float64 -> float32 narrowing the buffer policy implies.
            np.add(self.grad, grad, out=self.grad, casting="unsafe")
            return
        buf = self._grad_buf
        if buf is None or buf.shape != data.shape or buf.dtype != data.dtype:
            buf = self._grad_buf = grad.astype(data.dtype, copy=True)
            profiler = _THREAD.hooks.profiler
            if profiler is not None:
                profiler._record_grad_alloc(self.name or "tensor", buf.nbytes)
        else:
            # Bitwise the allocating branch's astype(dtype, copy=True).
            np.copyto(buf, grad, casting="unsafe")
        self.grad = buf

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad=None, retain_graph=False):
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Upstream gradient with the same shape as ``self``.  May be
            omitted for scalar tensors, in which case it defaults to 1.
        retain_graph:
            By default the tape is *freed* once gradients have been
            deposited: every visited node drops its backward closure and
            parent links, releasing the intermediate buffers those
            closures capture (conv/pool window views, padded inputs,
            activation caches) without waiting for the whole graph to
            fall out of scope.  Pass ``True`` to keep the graph alive,
            e.g. to call ``backward()`` again or to extend the graph
            from intermediate nodes afterwards.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if self._freed:
            raise RuntimeError(
                "backward() through a freed graph; pass retain_graph=True "
                "to the first backward() call if you need the tape again"
            )
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient is only valid "
                    f"for scalar tensors; got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        self._accumulate_grad(np.broadcast_to(np.asarray(grad), self.data.shape))

        hooks = _THREAD.hooks
        profiler = hooks.profiler
        anomaly_hook = hooks.anomaly
        order = self._topological_order()
        try:
            for node in reversed(order):
                if node._backward is None or node.grad is None:
                    continue
                if profiler is not None:
                    start = perf_counter()
                    node._backward(node.grad)
                    profiler._record_backward(node.name or "op", perf_counter() - start)
                else:
                    node._backward(node.grad)
                if anomaly_hook is not None:
                    anomaly_hook("backward", node.name or "op", node.grad,
                                 node._parents)
        finally:
            # Free the tape even when a backward closure or the anomaly
            # hook raises mid-walk: a partially-backpropagated graph has
            # already deposited gradients into some nodes, so retrying
            # backward() on it would double-count.  Freeing turns the
            # retry into an explicit freed-graph error and keeps the
            # profiler's tape-byte accounting balanced.
            if not retain_graph:
                _free_tape(order)
            if profiler is not None:
                # Don't let backward time leak into the next forward
                # op's interval attribution.
                profiler.mark()

    def _topological_order(self):
        """Return graph nodes reachable from ``self`` in topological order."""
        order = []
        visited = set()
        # Iterative DFS: model graphs are deep enough (recurrent nets
        # unrolled over time) that recursion would hit Python's limit.
        stack = [(self, iter(self._parents))]
        visited.add(id(self))
        while stack:
            node, parents = stack[-1]
            advanced = False
            for parent in parents:
                if id(parent) not in visited and parent.requires_grad:
                    visited.add(id(parent))
                    stack.append((parent, iter(parent._parents)))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
        return order

    # ------------------------------------------------------------------
    # Gradient / graph management
    # ------------------------------------------------------------------
    def zero_grad(self):
        """Reset the accumulated gradient to ``None``, keeping its buffer.

        ``grad`` reads ``None`` until the next deposit, which overwrites
        the kept buffer in place (see :meth:`_accumulate_grad`).  An
        array read from ``grad`` before the reset is therefore
        overwritten by the next backward; copy it to keep it.
        """
        self.grad = None

    def detach(self):
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False, name=self.name)

    def copy(self):
        """Return a detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False, name=self.name)

    def numpy(self):
        """Return the underlying numpy array (shared, not copied)."""
        return self.data

    def item(self):
        """Return the value of a scalar tensor as a Python number."""
        return self.data.item()

    def astype(self, dtype):
        """Return a detached copy cast to ``dtype`` (keeps ``name``)."""
        return Tensor(self.data.astype(dtype), name=self.name)


def as_tensor(value, name=None, dtype=None):
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one).

    ``dtype`` is a *weak* hint used by the op layer: python scalars and
    sequences are cast to it so a constant like ``0.5`` adopts the other
    operand's dtype instead of upcasting a float32 graph to float64.
    Explicit ``numpy`` arrays keep their own dtype — writing
    ``Tensor(np.float64(...))`` remains a deliberate precision choice.
    """
    if isinstance(value, Tensor):
        return value
    out = Tensor(value, name=name)
    if (dtype is not None
            and not isinstance(value, (np.ndarray, np.generic))
            and out.data.dtype.kind == "f"
            and np.dtype(dtype).kind == "f"
            and out.data.dtype != dtype):
        out.data = out.data.astype(dtype)
    return out
