"""Execution plans and the plan cache both graph compilers share.

:class:`ExecutionPlan` turns a :class:`~repro.compile.recorder.Recorder`
record list into the flattest structure that can re-execute it: view
records are dropped (aliases refresh with their bases), and maximal
runs of consecutive ``_Spec`` records are fused into
:class:`_FusedChain` objects — one python object per chain, dispatching
every ``out=`` ufunc from a local tuple loop with no per-op graph or
tape work.  Everything else (opaque closures, rng draws) executes in
schedule order between chains.

:class:`PlanCache` keeps one plan per :func:`batch_signature` and
proves each one against eager before trusting it; the training step
and the serving forward compilers are small subclasses of it.
"""

from __future__ import annotations

import copy
from time import perf_counter

import numpy as np

from repro.compile.recorder import Recorder, _Rng, _Run, _Spec, _View
from repro.data.windows import SampleBatch
from repro.profiling import get_active_profiler
from repro.tensor import tensor as _core
from repro.tensor.anomaly import is_anomaly_enabled
from repro.tensor.tensor import get_default_dtype

__all__ = ["ExecutionPlan", "PlanCache", "batch_signature",
           "private_batch"]


class _FusedChain:
    """A maximal run of consecutive specs, dispatched from one object."""

    __slots__ = ("ops",)

    def __init__(self, specs):
        self.ops = tuple((s.fn, s.srcs, s.out, s.kwargs) for s in specs)

    def execute(self):
        for fn, srcs, out, kwargs in self.ops:
            fn(*srcs, out=out, **kwargs)

    def __len__(self):
        return len(self.ops)


class ExecutionPlan:
    """Compiled replay schedule for one recorded step.

    Attributes
    ----------
    schedule:
        Executable items (:class:`_FusedChain`, ``_Run``, ``_Rng``) in
        program order.
    kernel_count / fused_chains:
        Raw executable-record count and the number of chains they were
        fused into, for reporting.
    buffer_bytes:
        Total bytes of the distinct output buffers the plan writes
        (a packed arena counts once): every replay rewrites these same
        buffers, nothing is reallocated.
    """

    def __init__(self, records):
        schedule = []
        chain = []
        kernel_count = 0
        fused_chains = 0
        buffers = {}
        for item in records:
            if isinstance(item, _Spec):
                chain.append(item)
                kernel_count += 1
                out = item.out
                root = out if out.base is None else out.base
                buffers[id(root)] = root
                continue
            if chain:
                schedule.append(_FusedChain(chain))
                fused_chains += 1
                chain = []
            if isinstance(item, _View):
                continue
            kernel_count += 1
            schedule.append(item)
            if isinstance(item, (_Run, _Rng)):
                for out in item.writes:
                    root = out if out.base is None else out.base
                    buffers[id(root)] = root
        if chain:
            schedule.append(_FusedChain(chain))
            fused_chains += 1
        self.schedule = tuple(schedule)
        self.kernel_count = kernel_count
        self.fused_chains = fused_chains
        self.buffer_bytes = sum(b.nbytes for b in buffers.values())

    def execute(self):
        for item in self.schedule:
            item.execute()


def batch_signature(batch):
    """Plan-cache key for a :class:`~repro.data.windows.SampleBatch`.

    Covers every per-field shape and dtype plus the ambient
    default-dtype policy: a shape change (last ragged batch of an
    epoch), a dtype change, or a policy change each resolve to a
    different plan (or fall back to eager while one builds).
    """
    fields = []
    for name in ("closeness", "period", "trend", "target"):
        array = getattr(batch, name)
        fields.append((name, array.shape, array.dtype.str))
    return tuple(fields) + (("default_dtype", np.dtype(get_default_dtype()).str),)


def private_batch(batch):
    """A deep copy of ``batch`` the plan may own as its pinned inputs.

    The recorded batch's arrays become the buffers every replay copies
    fresh data into (and, for a training step, the graph's leaves) —
    they must never be views of caller data (the serving path hands
    out zero-copy slices of the test split; replaying through those
    would overwrite it).
    """
    return SampleBatch(
        closeness=batch.closeness.copy(),
        period=batch.period.copy(),
        trend=batch.trend.copy(),
        target=batch.target.copy(),
        indices=batch.indices.copy(),
    )


def _identical(a, b):
    """Bitwise (``atol=0``) equality of two gate observations."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_identical, a, b))
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return (a.shape == b.shape and a.dtype == b.dtype
                and np.array_equal(a, b, equal_nan=True))
    if a is None or b is None:
        return a is b
    return a == b


def _mark_profiler():
    """Restart the thread's profiler clock, if one is installed."""
    profiler = get_active_profiler()
    if profiler is not None:
        profiler.mark()


class PlanCache:
    """Per-signature plan cache shared by both graph compilers.

    A subclass states only what its call records, replays and compares
    (the hooks below); this class owns the rest.  Every call runs eager
    while the calling thread is inside ``detect_anomaly()``: replay
    bypasses the per-op checks that mode installs.  Otherwise the
    call's :func:`batch_signature` selects what happens: a signature
    pinned to a fallback reason runs eager, a new one builds a plan, a
    built but untrusted one runs the shadow gate, and a trusted one
    replays.

    Building a plan takes these steps, in order:

    - **guard** — a module that would update running statistics outside
      the op layer (train-mode normalization) pins the signature to
      eager under the ``"guard"`` key, naming the module;
    - **record** — one real eager call on a private copy of the batch,
      under a :class:`~repro.compile.recorder.Recorder` installed on the
      calling thread only (a second thread's ops never enter the plan).
      The recorder is passive, so this call's result is the answer
      whatever follows; an op without a replay kernel pins the
      signature ("recording failed");
    - **build gate** — the generators the call draws from are rewound,
      the plan replays the same batch, and everything the subclass
      observes must equal the eager call bitwise (``atol=0``), else the
      signature is pinned ("build validation failed").

    The first call on a *fresh* batch of a built signature is the
    **shadow gate**: the plan replays, the generators are rewound, and
    an eager call on the same batch must match it bitwise again — this
    catches stale-input bugs the build gate cannot see.  Only then is
    the plan trusted; a mismatch pins the signature ("shadow validation
    failed").  Either way the caller gets the eager answer.

    A pinned signature pays for its build once, not per call.  Every
    reason lands in :meth:`report`'s ``fallbacks``, keyed by signature
    (or ``"guard"`` / ``"detect_anomaly"``).  ``_plans`` maps each
    signature to its plan object or its fallback reason string.
    """

    #: The report names the call counters ``compiled_<unit>`` and
    #: ``eager_<unit>``.
    _unit = "calls"

    def __init__(self, model):
        self.model = model
        self._plans = {}  # signature -> plan object | fallback-reason str
        self._fallbacks = {}  # short signature repr -> reason
        self.plans_built = 0
        self.build_s = 0.0  # wall time spent building those plans
        self.plans_validated = 0
        self.compiled_calls = 0
        self.eager_calls = 0

    # -- what each compiler states ------------------------------------
    def _run(self, batch, recording):
        """One eager call; returns ``(result, template)``.

        ``recording`` is true for the call a recorder captures.
        ``result`` is the caller's answer, which no replay may write;
        ``template`` is what :meth:`_plan` builds the plan from.
        """
        raise NotImplementedError

    def _plan(self, recorder, batch, template):
        """Build the plan object from a finished recording.

        It has ``replay(batch)``, ``plan`` (the :class:`ExecutionPlan`),
        ``trusted``, and the ``arena_bytes`` / ``arena_reuse_pct`` that
        :meth:`_footprint` computes.
        """
        raise NotImplementedError

    def _observe(self, result):
        """Everything the gates compare for one call's ``result``."""
        return result

    def _rngs(self):
        """Generators the call draws from, rewound per replay; none by default."""
        return ()

    def _drop(self, template):
        """Release a recording that did not become a plan."""

    def _reject(self, compiled, expected=None):
        """Release a plan object a gate rejected.

        The build gate passes ``expected``, its observation of the
        eager call, whose state the failed replay overwrote.
        """

    # -- the cache ----------------------------------------------------
    @staticmethod
    def _footprint(plan, scratch, packed_bytes=0, packable_bytes=0):
        """``(arena_bytes, arena_reuse_pct)`` of a built plan.

        ``arena_bytes`` is every byte the plan keeps alive: each buffer
        it writes (a liveness-packed arena of ``packed_bytes`` counts
        once) plus its private conv ``scratch``.  ``arena_reuse_pct``
        is the share of requested bytes — the ``packable_bytes`` offered
        to the arena plus every scratch request — the plan does not
        keep.
        """
        requested = packable_bytes + scratch.requested_bytes
        kept = packed_bytes + scratch.nbytes
        reuse_pct = 100.0 * (1.0 - kept / requested) if requested else 0.0
        return plan.buffer_bytes + scratch.nbytes, reuse_pct

    def _dispatch(self, batch):
        if is_anomaly_enabled():
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
        self.compiled_calls += 1
        _mark_profiler()
        return result

    def snapshot(self):
        """JSON-serialisable summary of the cache.

        Plan and call counts, the largest plan's ``arena_bytes`` (every
        byte it keeps alive) and ``arena_reuse_pct``, the kernels and
        fused chains over all plans, and every fallback reason.
        """
        plans = [p for p in self._plans.values() if not isinstance(p, str)]
        return {
            "plans_built": self.plans_built,
            "build_s": self.build_s,
            "plans_validated": self.plans_validated,
            f"compiled_{self._unit}": self.compiled_calls,
            f"eager_{self._unit}": self.eager_calls,
            "arena_bytes": max((p.arena_bytes for p in plans), default=0),
            "arena_reuse_pct": max((p.arena_reuse_pct for p in plans),
                                   default=0.0),
            "kernels": sum(p.plan.kernel_count for p in plans),
            "fused_chains": sum(p.plan.fused_chains for p in plans),
            "fallbacks": dict(self._fallbacks),
        }

    def _eager(self, batch):
        self.eager_calls += 1
        return self._run(batch, recording=False)[0]

    def _pin(self, signature, reason, key=None):
        """Run ``signature`` eager from now on, reporting ``reason``."""
        self._plans[signature] = reason
        self._fallbacks.setdefault(str(signature) if key is None else key,
                                   reason)

    def _guard(self):
        for module in self.model.modules():
            if getattr(module, "training", False) and (
                    hasattr(module, "running_mean")
                    or hasattr(module, "running_var")):
                return ("train-mode normalization updates running "
                        f"statistics outside the op layer "
                        f"({type(module).__name__})")
        return None

    def _rng_states(self):
        return [(rng, copy.deepcopy(rng.bit_generator.state))
                for rng in self._rngs()]

    @staticmethod
    def _rewind(states):
        for rng, state in states:
            rng.bit_generator.state = state

    def _build(self, signature, batch):
        reason = self._guard()
        if reason is not None:
            self._pin(signature, reason, key="guard")
            return self._eager(batch)

        started = perf_counter()
        before = self._rng_states()
        batch = private_batch(batch)  # replay pins must not alias caller data
        recorder = Recorder()
        with _core._installed(recorder=recorder):
            result, template = self._run(batch, recording=True)
        self.eager_calls += 1

        failure = recorder.finalize()
        if failure is not None:
            self._drop(template)
            self._pin(signature, f"recording failed: {failure}")
            return result

        compiled = self._plan(recorder, batch, template)
        expected = self._observe(result)
        after = self._rng_states()
        self._rewind(before)
        replayed = self._observe(compiled.replay(batch))
        self._rewind(after)
        if not _identical(replayed, expected):
            self._reject(compiled, expected)
            self._pin(signature,
                      "build validation failed: replay diverged from eager")
            return result

        self._plans[signature] = compiled
        self.plans_built += 1
        self.build_s += perf_counter() - started
        _mark_profiler()
        return result

    def _shadow(self, signature, compiled, batch):
        """First replay on fresh data, shadowed by an eager call."""
        before = self._rng_states()
        replayed = self._observe(compiled.replay(batch))
        self._rewind(before)
        result = self._eager(batch)
        if _identical(replayed, self._observe(result)):
            compiled.trusted = True
            self.plans_validated += 1
        else:
            self._reject(compiled)
            self._pin(signature, "shadow validation failed: replay "
                                 "diverged from eager on fresh inputs")
        return result
