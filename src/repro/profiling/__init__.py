"""Instrumentation for the autodiff runtime.

- :func:`profile` / :class:`OpProfiler` — per-op forward/backward wall
  time, call counts, output bytes, tape-memory and allocation
  accounting, hooked into the engine's two choke points
  (``Tensor._from_op`` and ``Tensor.backward``).  Zero cost when no
  profiler is installed.
- :func:`format_op_summary` — render a collected profile as a table.

The profiler counts ops only.  Every runtime component keeps its own
counters and reads them out the same way, as a JSON-able
``snapshot()``: the profiler, the server, the stream runtime and its
parts, the training engine, both compilers and both sentinels.  See
the "Profiling & telemetry" section of ``docs/api.md`` for where each
counter lives.
"""

from repro.profiling.op_profiler import (
    OpProfiler,
    OpStats,
    format_op_summary,
    get_active_profiler,
    profile,
)

__all__ = ["OpProfiler", "OpStats", "profile", "get_active_profiler",
           "format_op_summary"]
