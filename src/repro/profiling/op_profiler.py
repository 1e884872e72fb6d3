"""Low-overhead op profiler for the autodiff runtime.

The engine funnels every recorded operation through
:meth:`repro.tensor.Tensor._from_op` and every gradient closure through
:meth:`repro.tensor.Tensor.backward`, so those two choke points are the
only instrumentation hooks needed.  A profiler is installed per thread,
like grad mode: it sees only the ops of the thread that installed it.
When none is installed the hooks reduce to a single ``None`` check;
when one is installed via :func:`profile`, it collects

- per-op *forward* wall time (interval attribution: the time elapsed
  since the previous recorded op on the same thread, which in this
  synchronous engine is dominated by the op's own numpy work),
- per-op *backward* wall time (each closure is timed directly),
- call counts and cumulative output bytes,
- tape accounting: bytes of op outputs currently held by the tape,
  with a high-water mark (``peak_tape_bytes``) that drops when
  ``backward()`` frees the graph (see the tape-lifecycle notes in
  ``Tensor.backward``), and
- allocation accounting: fresh forward outputs, gradient buffers, and
  the bytes each optimizer step allocates.

Forward attribution is an approximation at the boundaries: the first op
after non-tensor work (data slicing, an optimizer step) absorbs that
gap.  Call :meth:`OpProfiler.mark` right before a forward pass to reset
the clock — the trainer does this per batch, and ``backward()`` does it
on exit.
"""

from __future__ import annotations

import contextlib
import time

from repro.tensor import tensor as _tensor_core

__all__ = ["OpStats", "OpProfiler", "profile", "get_active_profiler",
           "format_op_summary"]


class OpStats:
    """Accumulated statistics for one op name."""

    __slots__ = ("calls", "forward_s", "backward_calls", "backward_s",
                 "output_bytes", "grad_bytes", "alloc_bytes")

    def __init__(self):
        self.calls = 0
        self.forward_s = 0.0
        self.backward_calls = 0
        self.backward_s = 0.0
        self.output_bytes = 0
        self.grad_bytes = 0
        self.alloc_bytes = 0

    def as_dict(self):
        """Plain-dict view (JSON-serialisable)."""
        return {
            "calls": self.calls,
            "forward_s": self.forward_s,
            "backward_calls": self.backward_calls,
            "backward_s": self.backward_s,
            "output_bytes": self.output_bytes,
            "grad_bytes": self.grad_bytes,
            "alloc_bytes": self.alloc_bytes,
        }

    def __repr__(self):
        return (f"OpStats(calls={self.calls}, forward_s={self.forward_s:.6f}, "
                f"backward_calls={self.backward_calls}, "
                f"backward_s={self.backward_s:.6f}, "
                f"output_bytes={self.output_bytes}, "
                f"grad_bytes={self.grad_bytes})")


class OpProfiler:
    """Collects per-op timing and tape-memory accounting.

    Install with :func:`profile`; read results from :attr:`stats`,
    :attr:`peak_tape_bytes`, or the rendered :meth:`summary`.
    """

    def __init__(self):
        self.reset()

    # -- hooks called by the tensor core ------------------------------
    def mark(self):
        """Reset the forward-attribution clock to *now*."""
        self._last = time.perf_counter()

    def _record_forward(self, name, nbytes, on_tape, alloc_bytes=0):
        now = time.perf_counter()
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = OpStats()
        entry.calls += 1
        entry.forward_s += now - self._last
        entry.output_bytes += nbytes
        entry.alloc_bytes += alloc_bytes
        self.forward_alloc_bytes += alloc_bytes
        self._last = now
        if on_tape:
            self.tape_bytes += nbytes
            if self.tape_bytes > self.peak_tape_bytes:
                self.peak_tape_bytes = self.tape_bytes

    def _record_backward(self, name, seconds):
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = OpStats()
        entry.backward_calls += 1
        entry.backward_s += seconds

    def _record_tape_free(self, nbytes):
        self.tape_bytes = max(0, self.tape_bytes - nbytes)

    def _record_grad_alloc(self, name, nbytes):
        """A gradient buffer of ``nbytes`` was allocated for op ``name``."""
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = OpStats()
        entry.grad_bytes += nbytes
        self.grad_alloc_bytes += nbytes

    def _record_optimizer_step(self, alloc_bytes):
        """One optimizer step completed, having allocated ``alloc_bytes``."""
        self.optimizer_steps += 1
        self.optimizer_alloc_bytes += alloc_bytes

    # -- reading results ----------------------------------------------
    @property
    def total_forward_s(self):
        """Summed forward wall time over all ops."""
        return sum(s.forward_s for s in self.stats.values())

    @property
    def total_backward_s(self):
        """Summed backward wall time over all ops."""
        return sum(s.backward_s for s in self.stats.values())

    def reset(self):
        """Drop all collected statistics and tape counters."""
        self.stats = {}
        self.tape_bytes = 0
        self.peak_tape_bytes = 0
        # Allocation accounting: gradient buffers allocated during
        # backward (attributed per op below), and bytes the optimizer
        # reports allocating inside step() — zero per steady-state step
        # for the in-place kernels, ~a dozen temporaries per parameter
        # for the reference kernels.
        self.grad_alloc_bytes = 0
        self.optimizer_alloc_bytes = 0
        self.optimizer_steps = 0
        # Bytes of *fresh* op-output arrays (views excluded) materialised
        # by the eager engine.  Compiled replay bypasses ``_from_op``
        # entirely, so this counter is the eager-vs-compiled allocation
        # delta the throughput bench reports per arm.
        self.forward_alloc_bytes = 0
        self.mark()

    def snapshot(self):
        """JSON-serialisable snapshot of everything collected."""
        return {
            "ops": {name: stats.as_dict() for name, stats in self.stats.items()},
            "total_forward_s": self.total_forward_s,
            "total_backward_s": self.total_backward_s,
            "peak_tape_bytes": self.peak_tape_bytes,
            "grad_alloc_bytes": self.grad_alloc_bytes,
            "optimizer_alloc_bytes": self.optimizer_alloc_bytes,
            "optimizer_steps": self.optimizer_steps,
            "forward_alloc_bytes": self.forward_alloc_bytes,
        }

    def summary(self, limit=12):
        """Aligned text table of the most expensive ops."""
        return format_op_summary(self.snapshot(), limit=limit)


def format_op_summary(op_profile, limit=12):
    """Render an ``OpProfiler.snapshot()`` as a text table.

    Ops are sorted by combined forward+backward time, descending;
    ``limit`` truncates the table (``None`` shows everything).
    """
    ops = op_profile.get("ops", {})
    rows = sorted(ops.items(),
                  key=lambda kv: kv[1]["forward_s"] + kv[1]["backward_s"],
                  reverse=True)
    dropped = 0
    if limit is not None and len(rows) > limit:
        dropped = len(rows) - limit
        rows = rows[:limit]
    header = (f"{'op':<16} {'calls':>8} {'fwd ms':>10} {'bwd calls':>10} "
              f"{'bwd ms':>10} {'out MiB':>9} {'grad MiB':>9}")
    lines = [header, "-" * len(header)]
    for name, s in rows:
        lines.append(
            f"{name:<16} {s['calls']:>8} {s['forward_s'] * 1e3:>10.2f} "
            f"{s['backward_calls']:>10} {s['backward_s'] * 1e3:>10.2f} "
            f"{s['output_bytes'] / 2**20:>9.2f} "
            f"{s.get('grad_bytes', 0) / 2**20:>9.2f}"
        )
    if dropped:
        lines.append(f"... {dropped} more op(s) omitted")
    lines.append(
        f"total forward {op_profile.get('total_forward_s', 0.0) * 1e3:.2f} ms, "
        f"backward {op_profile.get('total_backward_s', 0.0) * 1e3:.2f} ms, "
        f"peak tape {op_profile.get('peak_tape_bytes', 0) / 2**20:.2f} MiB, "
        f"fwd alloc {op_profile.get('forward_alloc_bytes', 0) / 2**20:.2f} MiB"
    )
    steps = op_profile.get("optimizer_steps", 0)
    if steps:
        opt_bytes = op_profile.get("optimizer_alloc_bytes", 0)
        lines.append(
            f"optimizer: {steps} step(s), {opt_bytes / 2**20:.2f} MiB "
            f"allocated ({opt_bytes / steps / 2**10:.1f} KiB/step)"
        )
    return "\n".join(lines)


def get_active_profiler():
    """Return the :class:`OpProfiler` installed on this thread, or ``None``."""
    return _tensor_core._THREAD.hooks.profiler


@contextlib.contextmanager
def profile(profiler=None):
    """Install an op profiler on this thread for the duration of the block.

    Yields the active :class:`OpProfiler` (a fresh one unless
    ``profiler`` is given, which lets callers accumulate across several
    blocks).  It records only the ops of the calling thread.  Nesting
    restores the previous profiler on exit.

    >>> with profile() as prof:          # doctest: +SKIP
    ...     loss = model.training_loss(batch, rng)[0].total
    ...     loss.backward()
    >>> print(prof.summary())            # doctest: +SKIP
    """
    prof = profiler if profiler is not None else OpProfiler()
    with _tensor_core._installed(profiler=prof):
        prof.mark()
        yield prof
