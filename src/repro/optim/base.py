"""Optimizer base: a flat state arena swept in cache-sized blocks.

An optimizer owns, for the parameters of each dtype in
``optimizer.parameters`` order, one flat gradient buffer and one flat
buffer per moment (Adam's ``m`` and ``v``): its *arena*.  Every
parameter's ``_grad_buf`` is its view of the gradient arena, so
backward's first deposit lands there
(:meth:`repro.tensor.Tensor._accumulate_grad`), and every per-parameter
state dict holds views of the moment arenas, so checkpoints, rollback
snapshots and ``_state`` keep their per-parameter format.

:meth:`Optimizer.step` updates all parameters in one sweep of
:data:`BLOCK`-element blocks of the arena.  Each block runs the
optimizer's ``_update`` kernel — the same ``out=`` op sequence the
kernels ran over whole parameters, so results are bitwise what a
per-parameter loop gives — while the block's rows stay in cache.
Parameter values stay where they are (the data-parallel engine and the
replica pool put them in shared memory); a block covering one
parameter updates a slice of it in place, a block of several small
parameters gathers their values into a row and writes the row back.

State installed from outside — :func:`repro.training.load_checkpoint`,
a rollback snapshot, an assignment to ``_state`` or to ``param.grad``
— is copied into the arena at the next step and replaced by the
arena's view; the step never writes into the installed arrays.  A
parameter's dtype or shape change rebuilds the arena the same way.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import tensor as _tensor_core

__all__ = ["Optimizer"]

#: Elements per sweep block.  A block's working set is at most six rows
#: of it — gradient, two moments, parameter values, two scratch rows —
#: 1.5 MiB in float64, so the dozen-odd passes of an Adam update run
#: out of a 2 MiB L2 instead of streaming each whole array from memory
#: once per pass.
BLOCK = 32768


class _Arena:
    """Flat gradient and moment storage for the parameters of one dtype."""

    def __init__(self, dtype, indices, shapes, moments):
        self.dtype = dtype
        self.indices = indices  # positions in optimizer.parameters
        offsets = [0]
        for shape in shapes:
            offsets.append(offsets[-1] + int(np.prod(shape, dtype=np.int64)))
        self.offsets = offsets
        total = offsets[-1]
        self.grad = np.zeros(total, dtype=dtype)
        self.moments = [np.zeros(total, dtype=dtype) for _ in moments]
        self.grad_views = self._views(self.grad, shapes)
        self.moment_views = [self._views(flat, shapes) for flat in self.moments]
        # Gathered parameter values and the kernel's two scratch rows.
        self.rows = np.empty((3, min(BLOCK, total)), dtype=dtype)
        self.nbytes = (self.grad.nbytes * (1 + len(self.moments))
                       + self.rows.nbytes)

    def _views(self, flat, shapes):
        offsets = self.offsets
        return [flat[offsets[k]:offsets[k + 1]].reshape(shape)
                for k, shape in enumerate(shapes)]

    def blocks(self, start, stop):
        """Sweep blocks of parameters ``start:stop`` (arena positions).

        Each block is ``(first, last, lo, hi)``: arena elements
        ``lo:hi`` holding parameters ``first:last``.  A parameter larger
        than :data:`BLOCK` is cut into near-equal chunks of its own;
        smaller neighbours share a block up to :data:`BLOCK` elements.
        """
        offsets = self.offsets
        first = start
        for k in range(start, stop):
            lo, hi = offsets[k], offsets[k + 1]
            if hi - lo > BLOCK:
                if first < k:
                    yield first, k, offsets[first], lo
                chunks = -(-(hi - lo) // BLOCK)
                step = -(-(hi - lo) // chunks)
                for a in range(lo, hi, step):
                    yield k, k + 1, a, min(a + step, hi)
                first = k + 1
            elif hi - offsets[first] > BLOCK:
                yield first, k, offsets[first], lo
                first = k
        if first < stop:
            yield first, stop, offsets[first], offsets[stop]


class Optimizer:
    """Base class: holds the parameter list and the update contract.

    Subclasses name their per-parameter state arrays in ``_moments``
    and implement the block kernel ``_update(data, grad, moments,
    buffers, t)``: ``data``, ``grad`` and each of ``moments`` are 1-D
    rows of one block, ``buffers`` two scratch rows of the same length,
    and ``t`` the step count (state ``"t"``) every parameter of the
    block shares.  Kernels update ``data`` and the moments in place
    with ``out=`` numpy calls and allocate nothing (the
    ``optimizer-out`` lint rule checks every ``_update``).

    Parameters with no gradient are skipped and keep their state, so
    models with conditional branches train.  The sweep runs over
    maximal runs of consecutive parameters that have a gradient and
    the same next ``t``.  The arena is allocated by the first step (and
    by :meth:`flat_grads`) and reported through :meth:`_note_alloc`;
    steady-state steps allocate nothing.
    """

    _moments = ()

    def __init__(self, parameters, lr):
        parameters = list(parameters)
        if not parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive; got {lr}")
        self.parameters = parameters
        self.lr = lr
        self._state = [dict() for _ in parameters]
        self._step_count = 0
        self._layout = None
        self._arenas = ()
        # Allocation accounting (bytes): total since construction, and
        # the portion attributable to the most recent step().
        self.alloc_bytes_total = 0
        self.last_step_alloc_bytes = 0

    def zero_grad(self):
        """Clear gradients on every tracked parameter (buffers are kept)."""
        for param in self.parameters:
            param.zero_grad()

    def _note_alloc(self, nbytes):
        """Record that the current step allocated ``nbytes`` of arrays."""
        self.alloc_bytes_total += nbytes
        self.last_step_alloc_bytes += nbytes

    def flat_grads(self):
        """The flat gradient arena and its per-parameter views.

        Only for a parameter list of one dtype, whose arena follows
        ``parameters`` order: the data-parallel engine sums worker
        gradients straight into it and installs the views as
        ``param.grad``.
        """
        arenas = self._current_arenas()
        if len(arenas) != 1:
            raise ValueError("flat_grads() needs one parameter dtype; got "
                             f"{sorted(str(a.dtype) for a in arenas)}")
        return arenas[0].grad, arenas[0].grad_views

    def _current_arenas(self):
        """The arenas, rebuilt when a parameter's dtype or shape changed."""
        layout = [(p.data.dtype, p.data.shape) for p in self.parameters]
        if layout != self._layout:
            groups = {}
            for index, (dtype, _shape) in enumerate(layout):
                groups.setdefault(dtype, []).append(index)
            self._arenas = tuple(
                _Arena(dtype, indices, [layout[i][1] for i in indices],
                       self._moments)
                for dtype, indices in groups.items())
            self._layout = layout
            for arena in self._arenas:
                self._note_alloc(arena.nbytes)
                for index, view in zip(arena.indices, arena.grad_views):
                    self.parameters[index]._grad_buf = view
        return self._arenas

    def step(self):
        """Apply one update using the currently accumulated gradients."""
        self._step_count += 1
        self.last_step_alloc_bytes = 0
        for arena in self._current_arenas():
            runs, flats = self._sync(arena)
            for start, stop, t in runs:
                self._sweep(arena, flats, start, stop, t)
        self._finish_step()

    def _finish_step(self):
        profiler = _tensor_core._THREAD.hooks.profiler
        if profiler is not None:
            profiler._record_optimizer_step(self.last_step_alloc_bytes)
            # Keep optimizer time out of the next forward op's interval.
            profiler.mark()

    def _sync(self, arena):
        """Bring ``arena`` up to date for one step; returns its runs.

        Copies gradients and state installed from outside into the
        arena and advances ``t`` of every parameter with a gradient.
        Returns ``(runs, flats)``: the runs ``(start, stop, t)`` to
        sweep, and each parameter's flat value view (``None`` for a
        parameter without a gradient).
        """
        params, states = self.parameters, self._state
        names = self._moments
        runs, flats = [], []
        start = run_t = None
        for k, index in enumerate(arena.indices):
            param = params[index]
            grad = param.grad
            if grad is None:
                flats.append(None)
                if start is not None:
                    runs.append((start, k, run_t))
                    start = None
                continue
            view = arena.grad_views[k]
            if grad is not view:
                np.copyto(view, grad, casting="unsafe")
                param.grad = view
            data = param.data
            if not data.flags.c_contiguous:
                # A flat view must alias the values it updates.
                data = param.data = np.ascontiguousarray(data)
            flats.append(data.reshape(-1))
            state = states[index]
            for name, views in zip(names, arena.moment_views):
                value, view = state.get(name), views[k]
                if value is not view:
                    if value is None:
                        view.fill(0)
                    else:
                        np.copyto(view, value, casting="unsafe")
                    state[name] = view
            t = state["t"] = state.get("t", 0) + 1
            if start is not None and t != run_t:
                runs.append((start, k, run_t))
                start = None
            if start is None:
                start, run_t = k, t
        if start is not None:
            runs.append((start, len(arena.indices), run_t))
        return runs, flats

    def _sweep(self, arena, flats, start, stop, t):
        """Run the kernel over parameters ``start:stop`` block by block."""
        update = self._update
        offsets, grad, moments = arena.offsets, arena.grad, arena.moments
        gathered, buf1, buf2 = arena.rows
        for first, last, lo, hi in arena.blocks(start, stop):
            n = hi - lo
            rows = [flat[lo:hi] for flat in moments]
            buffers = (buf1[:n], buf2[:n])
            if last - first == 1:
                base = offsets[first]
                update(flats[first][lo - base:hi - base], grad[lo:hi], rows,
                       buffers, t)
                continue
            data = gathered[:n]
            for k in range(first, last):
                np.copyto(data[offsets[k] - lo:offsets[k + 1] - lo], flats[k])
            update(data, grad[lo:hi], rows, buffers, t)
            for k in range(first, last):
                np.copyto(flats[k], data[offsets[k] - lo:offsets[k + 1] - lo])

    def _update(self, data, grad, moments, buffers, t):
        raise NotImplementedError
