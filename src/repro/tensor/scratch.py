"""Persistent keyed scratch buffers for allocation-free kernels.

A :class:`ScratchPool` hands out numpy arrays keyed by
``(tag, shape, dtype)`` and keeps them alive, so a hot-path kernel that
needs the same-shaped workspace every call (the conv im2col buffer and
GEMM output) reuses one allocation instead of materialising a fresh
array per call.

Two pools exist:

- the *thread-local default pool* (:func:`default_pool`), used by the
  eager conv path.  Thread-local because ``repro.serve``'s micro-batch
  consumer thread and the main training thread may run convolutions
  concurrently and the buffers are stateful scratch, not shared data;
- a *recorder-owned pool* created per compiled plan (see
  :mod:`repro.compile`).  Compiled replay kernels capture their scratch
  arrays by reference, so a plan must never share a pool with code that
  could hand the same key to somebody else mid-flight — each
  :class:`~repro.compile.recorder.Recorder` therefore owns a private
  pool, which doubles as the "single persistent im2col scratch shared
  across all conv calls" of the plan (same-shaped convolutions get the
  same buffer; every kernel rewrites it fully before use).

``requested_bytes`` adds up the bytes every ``get`` and every conv call
asks for, while ``nbytes`` is the pool's actual footprint; their ratio
is the buffer-reuse percentage reported by the compile profiling counters.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["ScratchPool", "default_pool"]


class ScratchPool:
    """Keyed, persistent scratch arrays (never returned, never freed),
    and :func:`~repro.tensor.conv2d`'s workspaces: views onto them, built
    once per call signature, whose bytes every call still requests."""

    def __init__(self):
        self._buffers = {}
        self._signatures = {}
        self.requested_bytes = 0

    def get(self, tag, shape, dtype):
        """Return the pooled array for ``(tag, shape, dtype)``.

        The contents are unspecified: callers must fully overwrite the
        buffer before reading it.
        """
        key = (tag, tuple(shape), np.dtype(dtype).str)
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = np.empty(shape, dtype=dtype)  # lint: ignore[alloc]
            self._buffers[key] = buffer
        self.requested_bytes += buffer.nbytes
        return buffer

    @property
    def nbytes(self):
        """Actual bytes held by the pool."""
        return sum(buffer.nbytes for buffer in self._buffers.values())

    def __len__(self):
        return len(self._buffers)

    def reuse_pct(self):
        """Percentage of requested bytes served without a new allocation."""
        if not self.requested_bytes:
            return 0.0
        return 100.0 * (1.0 - self.nbytes / self.requested_bytes)

    def clear(self):
        """Drop every buffer and workspace (callers keep their references)."""
        self._buffers.clear()
        self._signatures.clear()
        self.requested_bytes = 0


_LOCAL = threading.local()


def default_pool():
    """This thread's shared eager-path :class:`ScratchPool`."""
    pool = getattr(_LOCAL, "pool", None)
    if pool is None:
        pool = _LOCAL.pool = ScratchPool()
    return pool
