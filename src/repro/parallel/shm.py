"""Shared-memory array blocks for the forked-worker runtime.

A :class:`SharedArrayBlock` owns one
:class:`multiprocessing.shared_memory.SharedMemory` segment and exposes
named numpy views into it.  The parent creates every block *before*
forking; workers inherit the ``MAP_SHARED`` mappings through fork, so
no attach-by-name, pickling, or resource-tracker traffic happens on the
hot path — a write on either side of the fork is immediately visible to
the other.

Blocks hold:

- the flat **parameter** buffer (:class:`repro.parallel.workers.SharedParams`)
  that the parent writes in place — an optimizer step in training, a
  checkpoint install in serving — and every worker reads;
- the training engine's per-worker **gradient shard** matrix, which the
  parent allreduces with a single rank-ordered ``np.sum``, and its
  double-buffered **batch ring**, which the prefetch producer fills
  while workers compute (:mod:`repro.parallel.engine`);
- the serving pool's **request slot**: the coalesced batch, the output
  rows, and the generation counter (:mod:`repro.serve.pool`).
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

__all__ = ["SharedArrayBlock"]


class SharedArrayBlock:
    """One shared-memory segment carved into named ndarray views.

    Parameters
    ----------
    spec:
        ``{name: (shape, dtype)}`` for every array the block holds.
        Offsets are laid out in ``spec`` order, each aligned to the
        array's itemsize.
    zero:
        Zero-fill the segment after creation (shared memory is
        zero-initialised on Linux already; this makes it explicit).
    """

    def __init__(self, spec, zero=False):
        offsets = {}
        cursor = 0
        for name, (shape, dtype) in spec.items():
            dtype = np.dtype(dtype)
            align = dtype.itemsize
            cursor = (cursor + align - 1) // align * align
            offsets[name] = cursor
            cursor += int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        self._shm = shared_memory.SharedMemory(create=True, size=max(cursor, 1))
        self.arrays = {}
        for name, (shape, dtype) in spec.items():
            view = np.ndarray(shape, dtype=dtype, buffer=self._shm.buf,
                              offset=offsets[name])
            if zero:
                view.fill(0)
            self.arrays[name] = view
        self._closed = False

    def __getitem__(self, name):
        return self.arrays[name]

    @property
    def nbytes(self):
        """Size of the underlying segment in bytes."""
        return self._shm.size

    def close(self, unlink=True):
        """Release the views and the mapping; ``unlink`` destroys the segment.

        The creating (parent) process unlinks; forked workers only close
        their inherited mapping on exit.  Idempotent — the engine's
        cleanup paths may race a signal handler into calling this twice.
        """
        if self._closed:
            return
        self._closed = True
        # Drop the ndarray views first: SharedMemory.close() cannot
        # release a buffer that still has exported memoryviews.
        self.arrays = {}
        try:
            self._shm.close()
        except (BufferError, OSError):  # pragma: no cover - exotic teardown
            pass
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # already unlinked by a peer
                pass
