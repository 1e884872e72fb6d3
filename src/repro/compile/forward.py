"""Tape-free compiled forwards for the serving hot path.

:class:`ForwardCompiler` records ``model.predict`` once per batch size
under ``no_grad()`` and compiles the record into a
:class:`CompiledForward`: a fused kernel schedule whose *intermediate*
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
(the micro-batcher's futures) may still hold the result.

Hot-swapping is compatible by construction:
``Module.load_state_dict`` writes parameter arrays in place, and the
kernels read those same arrays on every replay.

Like :class:`~repro.compile.step.StepCompiler`, every call runs eager
while the calling thread is inside ``detect_anomaly()``: replay
bypasses the per-op checks that mode installs.  Recording is per
thread too, so a second thread's ops never enter a plan.
"""

from __future__ import annotations

import copy
from time import perf_counter

import numpy as np

from repro.compile.plan import ExecutionPlan, batch_signature
from repro.compile.recorder import Recorder, _Rng, _Run, _Spec, _View
from repro.compile.step import private_batch
from repro.inspect.liveness import compute_liveness, plan_arena
from repro.tensor import tensor as _core
from repro.tensor.anomaly import is_anomaly_enabled
from repro.tensor.tensor import no_grad

__all__ = ["CompiledForward", "ForwardCompiler"]


def _bitwise_equal(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a, b, equal_nan=True))


def _root_of(array):
    while array.base is not None:
        array = array.base
    return array


def _pack_arena(records, output):
    """Relocate safely-packable intermediates into one shared arena.

    Returns ``(records, arena, arena_bytes, packable_bytes)`` where
    ``records`` reference arena-backed buffers for every packed key.
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


class ForwardCompiler:
    """Per-batch-size plan cache around ``model.predict``."""

    def __init__(self, model):
        self.model = model
        self._plans = {}  # signature -> CompiledForward | reason str
        self._fallbacks = {}
        self.plans_built = 0
        self.build_s = 0.0  # wall time spent building those plans
        self.plans_validated = 0
        self.compiled_forwards = 0
        self.eager_forwards = 0

    # ------------------------------------------------------------------
    def forward(self, batch):
        """Predict for ``batch``; compiled replay once a plan is trusted.

        Not thread-safe by itself — the server calls it under its
        forward lock, the same discipline the eager path uses.
        """
        if is_anomaly_enabled():
            # Anomaly mode checks every _from_op call; replay bypasses
            # _from_op entirely, so honor the debug request.
            self._fallbacks.setdefault("detect_anomaly",
                                       "detect_anomaly() is active")
            return self._eager(batch)
        signature = batch_signature(batch)
        entry = self._plans.get(signature)
        if isinstance(entry, str):
            return self._eager(batch)
        if entry is None:
            return self._build(signature, batch)
        if not entry.trusted:
            return self._shadow(signature, entry, batch)
        result = entry.replay(batch)
        self.compiled_forwards += 1
        return result

    def report(self):
        plans = [p for p in self._plans.values()
                 if isinstance(p, CompiledForward)]
        return {
            "plans_built": self.plans_built,
            "build_s": self.build_s,
            "plans_validated": self.plans_validated,
            "compiled_forwards": self.compiled_forwards,
            "eager_forwards": self.eager_forwards,
            "arena_bytes": max((p.arena_bytes for p in plans), default=0),
            "arena_reuse_pct": max((p.arena_reuse_pct for p in plans),
                                   default=0.0),
            "fallbacks": dict(self._fallbacks),
        }

    # ------------------------------------------------------------------
    def _eager(self, batch):
        self.eager_forwards += 1
        with no_grad():
            return np.asarray(self.model.predict(batch))

    def _rngs(self):
        """Generators ``predict`` may draw from (rewound for shadows)."""
        rng = getattr(self.model, "_sample_rng", None)
        return [rng] if isinstance(rng, np.random.Generator) else []

    def _snapshot_rngs(self):
        return [(rng, copy.deepcopy(rng.bit_generator.state))
                for rng in self._rngs()]

    @staticmethod
    def _restore_rngs(states):
        for rng, state in states:
            rng.bit_generator.state = copy.deepcopy(state)

    def _build(self, signature, batch):
        for module in self.model.modules():
            if getattr(module, "training", False) and (
                    hasattr(module, "running_mean")
                    or hasattr(module, "running_var")):
                reason = ("train-mode normalization updates running "
                          "statistics outside the op layer")
                self._plans[signature] = reason
                self._fallbacks.setdefault("guard", reason)
                return self._eager(batch)

        started = perf_counter()
        states = self._snapshot_rngs()
        batch = private_batch(batch)  # replay pins must not alias caller data
        recorder = Recorder()
        with _core._installed(recorder=recorder, grad_enabled=False):
            prediction = np.asarray(self.model.predict(batch))
        self.eager_forwards += 1

        failure = recorder.finalize()
        if failure is not None:
            reason = f"recording failed: {failure}"
            self._plans[signature] = reason
            self._fallbacks.setdefault(str(signature), reason)
            return prediction

        records, arena, arena_bytes, packable = _pack_arena(
            recorder.records, prediction)
        plan = ExecutionPlan(records)
        reuse_pct = (100.0 * (1.0 - arena_bytes / packable)
                     if packable else 0.0)
        pins = (batch.closeness, batch.period, batch.trend)
        step = CompiledForward(plan, pins, prediction, arena,
                               arena_bytes, reuse_pct)

        # Build validation: rewind the rng(s), replay the same batch —
        # the compiled output must equal the eager one bitwise.
        # ``prediction`` is the plan's output buffer, which the replay
        # rewrites, so the eager answer is copied out first; the copy
        # is also what the caller gets.
        eager = prediction.copy()
        post = self._snapshot_rngs()
        self._restore_rngs(states)
        replayed = step.replay(batch)
        self._restore_rngs(post)
        if not _bitwise_equal(replayed, eager):
            reason = "build validation failed: replay diverged from eager"
            self._plans[signature] = reason
            self._fallbacks.setdefault(str(signature), reason)
            return eager

        self._plans[signature] = step
        self.plans_built += 1
        self.build_s += perf_counter() - started
        return eager

    def _shadow(self, signature, step, batch):
        """First replay on fresh data, shadowed by an eager predict."""
        states = self._snapshot_rngs()
        replayed = step.replay(batch)
        self._restore_rngs(states)
        eager = self._eager(batch)
        if _bitwise_equal(replayed, eager):
            step.trusted = True
            self.plans_validated += 1
        else:
            reason = ("shadow validation failed: replay diverged from "
                      "eager on fresh inputs")
            self._plans[signature] = reason
            self._fallbacks.setdefault(str(signature), reason)
        return eager
