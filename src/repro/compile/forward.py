"""Tape-free compiled forwards for the serving hot path.

:class:`ForwardCompiler` is the :class:`~repro.compile.plan.PlanCache`
around ``model.predict``: it records one prediction per batch size
under ``no_grad()`` and compiles the record into a
:class:`CompiledForward`, a fused kernel schedule whose *intermediate*
buffers live in one liveness-packed arena.  Unlike the training
:class:`~repro.compile.step.CompiledStep` — which must retain every
forward buffer because backward closures read them — a forward-only
plan frees each intermediate the moment its last reader has run, so
buffers with disjoint lifetimes share arena bytes
(:func:`repro.inspect.compute_liveness` / ``plan_arena``).

Packing is conservative: only buffers that every kernel touches
*directly* (never through a view, never from an opaque closure, never
the final output) are relocated into the arena; everything else stays
pinned in place.  Replay copies the request batch into the pinned input
arrays, executes the schedule, and returns a *copy* of the output
buffer — the arena rows are reused by the next replay while callers
(the micro-batcher's futures) may still hold the result.  The gates
compare such copies with the eager prediction; no generator is
rewound, because ``predict`` draws no random numbers.

Hot-swapping is compatible by construction:
``Module.load_state_dict`` writes parameter arrays in place, and the
kernels read those same arrays on every replay.
"""

from __future__ import annotations

import numpy as np

from repro.compile.plan import ExecutionPlan, PlanCache
from repro.compile.recorder import _Spec, _View
from repro.inspect.liveness import compute_liveness, plan_arena
from repro.tensor.tensor import no_grad

__all__ = ["CompiledForward", "ForwardCompiler"]


def _root_of(array):
    while array.base is not None:
        array = array.base
    return array


def _pack_arena(records, output):
    """Relocate safely-packable intermediates into one shared arena.

    Returns ``(records, arena, arena_bytes, packable_bytes)``:
    ``records`` reference arena-backed buffers for every packed key,
    and the ``packable_bytes`` of those buffers share the
    ``arena_bytes`` of ``arena``.
    """
    pinned = set()
    spec_roots = {}
    events = []

    def note(array, reads_or_writes, pin=False):
        root = _root_of(array)
        if pin or array is not root:
            pinned.add(id(root))
        reads_or_writes.append(id(root))
        return root

    for item in records:
        reads, writes = [], []
        if isinstance(item, _Spec):
            for src in item.srcs:
                if isinstance(src, np.ndarray):
                    note(src, reads)
            root = note(item.out, writes)
            if item.out is root:
                spec_roots[id(root)] = root
        elif isinstance(item, _View):
            note(item.out, reads, pin=True)
            note(item.base, reads, pin=True)
        else:  # _Run / _Rng: opaque — pin everything it touches
            for src in getattr(item, "reads", ()):
                note(src, reads, pin=True)
            for dst in item.writes:
                note(dst, writes, pin=True)
        events.append((reads, writes))

    pinned.add(id(_root_of(output)))
    candidates = {key: root for key, root in spec_roots.items()
                  if key not in pinned}
    intervals = {key: span
                 for key, span in compute_liveness(events).items()
                 if key in candidates}
    sizes = {key: candidates[key].nbytes for key in intervals}
    offsets, arena_bytes = plan_arena(intervals, sizes)
    arena = np.empty(arena_bytes, dtype=np.uint8)  # lint: ignore[alloc]
    remap = {}
    for key, offset in offsets.items():
        old = candidates[key]
        remap[key] = arena[offset:offset + old.nbytes] \
            .view(old.dtype).reshape(old.shape)

    packed = []
    for item in records:
        if isinstance(item, _Spec) and remap:
            srcs = tuple(remap.get(id(src), src)
                         if isinstance(src, np.ndarray) else src
                         for src in item.srcs)
            out = remap.get(id(item.out), item.out)
            packed.append(_Spec(item.fn, srcs, out, item.kwargs))
        else:
            packed.append(item)
    packable_bytes = sum(sizes.values())
    return packed, arena, arena_bytes, packable_bytes


class CompiledForward:
    """One batch size's compiled predict: copy in, execute, copy out."""

    __slots__ = ("plan", "pins", "output", "arena", "trusted",
                 "arena_bytes", "arena_reuse_pct")

    def __init__(self, plan, pins, output, arena, arena_bytes, reuse_pct):
        self.plan = plan
        self.pins = pins
        self.output = output
        self.arena = arena  # keep the packed buffers alive
        self.trusted = False
        self.arena_bytes = arena_bytes
        self.arena_reuse_pct = reuse_pct

    def replay(self, batch):
        pin_c, pin_p, pin_t = self.pins
        np.copyto(pin_c, batch.closeness)
        np.copyto(pin_p, batch.period)
        np.copyto(pin_t, batch.trend)
        self.plan.execute()
        # The output buffer is rewritten by the next replay; callers
        # (micro-batcher futures) keep their own rows.
        return self.output.copy()


class ForwardCompiler(PlanCache):
    """Per-batch-size plan cache around ``model.predict``."""

    _unit = "forwards"

    def forward(self, batch):
        """Predict for ``batch``; compiled replay once a plan is trusted.

        Not thread-safe by itself — the server calls it under its
        forward lock, the same discipline the eager path uses.
        """
        return self._dispatch(batch)

    def _run(self, batch, recording):
        with no_grad():
            prediction = np.asarray(self.model.predict(batch))
        # A recorded prediction becomes the plan's output buffer, which
        # every replay rewrites: the caller gets a copy.
        return (prediction.copy() if recording else prediction), prediction

    def _plan(self, recorder, batch, prediction):
        records, arena, packed, packable = _pack_arena(recorder.records,
                                                       prediction)
        plan = ExecutionPlan(records)
        pins = (batch.closeness, batch.period, batch.trend)
        return CompiledForward(plan, pins, prediction, arena,
                               *self._footprint(plan, recorder.scratch,
                                                packed, packable))
