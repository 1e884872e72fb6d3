"""Graph-compiled training steps: record once, replay in place.

:class:`StepCompiler` wraps the trainer's serial step.  The first time
a batch signature (field shapes + dtypes + default-dtype policy) is
seen, it runs one *real* eager step under a
:class:`~repro.compile.recorder.Recorder` with
``backward(retain_graph=True)``, keeping the whole graph — every
forward buffer, every backward closure — alive as a template.  The
recorded kernels form an :class:`~repro.compile.plan.ExecutionPlan`
that refreshes those same buffers in place; replaying a step is then

1. copy the new batch into the pinned warmup input arrays (the graph's
   leaves alias them),
2. ``zero_grad`` every node — each keeps its gradient buffer, so the
   first deposit of the replay overwrites it in place,
3. execute the plan (fused ``out=`` kernels, zero forward allocations),
4. re-walk the retained backward closures over the precomputed
   topological order, depositing gradients into the reused buffers.

Correctness gates (both bitwise, ``atol=0``):

- **build validation** — after recording, the rng is rewound and the
  plan replayed on the *same* batch; loss, reg, and every parameter
  gradient must equal the eager warmup exactly, else the signature is
  pinned to eager;
- **shadow validation** — the first replay on a *new* batch is shadowed
  by a full eager step on the same batch (rng rewound in between); any
  divergence — including stale-input bugs the build check cannot see —
  permanently falls back to eager for that signature.

Compilation is refused up front when a module would update running
statistics outside the op layer (train-mode normalization) and per-call
whenever the calling thread is inside ``detect_anomaly()``; both are
reported via :meth:`StepCompiler.report`.  The recorder is installed on
the recording thread only, so a second thread's ops never enter a plan.
"""

from __future__ import annotations

import copy
from time import perf_counter

import numpy as np

from repro.compile.plan import ExecutionPlan, batch_signature
from repro.compile.recorder import Recorder
from repro.data.windows import SampleBatch
from repro.profiling import get_active_profiler
from repro.tensor import tensor as _core
from repro.tensor.anomaly import is_anomaly_enabled

__all__ = ["CompiledStep", "StepCompiler", "private_batch"]


def private_batch(batch):
    """A deep copy of ``batch`` the plan may own as its pinned inputs.

    The warmup batch's arrays become the graph's leaves *and* the
    buffers every replay copies fresh data into — they must never be
    views of caller data (the serving path hands out zero-copy slices
    of the test split; replaying through those would overwrite it).
    """
    return SampleBatch(
        closeness=batch.closeness.copy(),
        period=batch.period.copy(),
        trend=batch.trend.copy(),
        target=batch.target.copy(),
        indices=batch.indices.copy(),
    )


def _rng_state(rng):
    return copy.deepcopy(rng.bit_generator.state)


def _mark_profiler():
    """Restart the thread's profiler clock, if one is installed."""
    profiler = get_active_profiler()
    if profiler is not None:
        profiler.mark()


class CompiledStep:
    """One signature's retained graph + replay schedule."""

    __slots__ = ("plan", "loss", "reg", "order", "pins", "ones", "trusted",
                 "arena_bytes", "arena_reuse_pct")

    def __init__(self, plan, breakdown, pins, arena_bytes, arena_reuse_pct):
        self.plan = plan
        self.loss = breakdown.total
        self.reg = breakdown.reg
        self.order = self.loss._topological_order()
        self.pins = pins  # (closeness, period, trend, target) warmup arrays
        self.ones = np.ones_like(self.loss.data)  # lint: ignore[alloc]
        self.trusted = False
        self.arena_bytes = arena_bytes
        self.arena_reuse_pct = arena_reuse_pct

    def replay(self, batch):
        """Run one step in place; returns ``(loss, reg)`` scalars.

        Gradients land on the parameters exactly as after an eager
        ``zero_grad → training_loss → backward`` sequence.
        """
        pin_c, pin_p, pin_t, pin_y = self.pins
        np.copyto(pin_c, batch.closeness)
        np.copyto(pin_p, batch.period)
        np.copyto(pin_t, batch.trend)
        np.copyto(pin_y, batch.target)
        order = self.order
        for node in order:
            node.zero_grad()
        self.plan.execute()
        loss = self.loss
        loss._accumulate_grad(self.ones)
        for node in reversed(order):
            # The eager walk's skip: a node that received no deposit.
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)
        return loss.item(), self.reg.item()

    def free(self):
        """Drop the retained tape (plan invalidated)."""
        _core._free_tape(self.order)


class StepCompiler:
    """Per-signature plan cache around a model/optimizer/rng triple."""

    def __init__(self, model, optimizer, rng):
        self.model = model
        self.optimizer = optimizer
        self.rng = rng
        self._plans = {}  # signature -> CompiledStep | fallback-reason str
        self._fallbacks = {}  # short signature repr -> reason
        self.plans_built = 0
        self.build_s = 0.0  # wall time spent building those plans
        self.plans_validated = 0
        self.compiled_steps = 0
        self.eager_steps = 0

    # ------------------------------------------------------------------
    def step(self, batch):
        """Run one training step; compiled replay when a plan is trusted.

        Always leaves the same post-state as the eager step: loss/reg
        returned, per-parameter gradients deposited, rng advanced by
        exactly one step's draws.  The calling thread's profiler, if
        any, sees the eager steps' ops.
        """
        if is_anomaly_enabled():
            # Anomaly mode instruments every _from_op call; replay
            # bypasses _from_op entirely, so honor the debug request.
            self._note("detect_anomaly", "detect_anomaly() is active")
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
        self.compiled_steps += 1
        _mark_profiler()
        return result

    def report(self):
        """JSON-serialisable summary for ``History.compiled``."""
        plans = [p for p in self._plans.values()
                 if isinstance(p, CompiledStep)]
        return {
            "plans_built": self.plans_built,
            "build_s": self.build_s,
            "plans_validated": self.plans_validated,
            "compiled_steps": self.compiled_steps,
            "eager_steps": self.eager_steps,
            "arena_bytes": max((p.arena_bytes for p in plans), default=0),
            "arena_reuse_pct": max((p.arena_reuse_pct for p in plans),
                                   default=0.0),
            "kernels": sum(p.plan.kernel_count for p in plans),
            "fused_chains": sum(p.plan.fused_chains for p in plans),
            "fallbacks": dict(self._fallbacks),
        }

    # ------------------------------------------------------------------
    def _note(self, key, reason):
        self._fallbacks.setdefault(str(key), reason)

    def _eager(self, batch):
        self.eager_steps += 1
        self.optimizer.zero_grad()
        _mark_profiler()
        breakdown, _outputs = self.model.training_loss(batch, rng=self.rng)
        breakdown.total.backward()
        return breakdown.total.item(), breakdown.reg.item()

    def _compile_guard(self):
        for module in self.model.modules():
            if getattr(module, "training", False) and (
                    hasattr(module, "running_mean")
                    or hasattr(module, "running_var")):
                return ("train-mode normalization updates running "
                        f"statistics outside the op layer "
                        f"({type(module).__name__})")
        return None

    def _param_grads(self):
        return [(p, None if p.grad is None else p.grad.copy())
                for p in self.optimizer.parameters]

    @staticmethod
    def _grads_equal(saved, parameters):
        for (param, grad), live in zip(saved, parameters):
            live_grad = live.grad
            if grad is None or live_grad is None:
                if (grad is None) != (live_grad is None):
                    return False
                continue
            if not np.array_equal(grad, live_grad, equal_nan=True):
                return False
        return True

    # ------------------------------------------------------------------
    def _build(self, signature, batch):
        reason = self._compile_guard()
        if reason is not None:
            self._plans[signature] = reason
            self._note("guard", reason)
            return self._eager(batch)

        started = perf_counter()
        state_pre = _rng_state(self.rng)
        batch = private_batch(batch)  # replay pins must not alias caller data
        # The warmup is a *real* eager step (the recorder is passive),
        # so whatever happens below, a valid (loss, reg) comes out and
        # the gradients it deposited stand.
        self.optimizer.zero_grad()
        _mark_profiler()
        recorder = Recorder()
        with _core._installed(recorder=recorder):
            breakdown, _outputs = self.model.training_loss(batch,
                                                           rng=self.rng)
            breakdown.total.backward(retain_graph=True)
        loss_value = breakdown.total.item()
        reg_value = breakdown.reg.item()

        failure = recorder.finalize()
        if failure is not None:
            _core._free_tape(breakdown.total._topological_order())
            reason = f"recording failed: {failure}"
            self._plans[signature] = reason
            self._note(signature, reason)
            self.eager_steps += 1
            return loss_value, reg_value

        plan = ExecutionPlan(recorder.records)
        arena_bytes = plan.buffer_bytes + recorder.scratch.nbytes
        reuse_pct = recorder.scratch.reuse_pct()
        pins = (batch.closeness, batch.period, batch.trend, batch.target)
        step = CompiledStep(plan, breakdown, pins, arena_bytes, reuse_pct)

        # Build validation: rewind the rng and replay the same batch —
        # everything observable must be bitwise the eager warmup.
        state_post = _rng_state(self.rng)
        saved = self._param_grads()
        self.rng.bit_generator.state = state_pre
        replay_loss, replay_reg = step.replay(batch)
        self.rng.bit_generator.state = state_post
        if (replay_loss != loss_value or replay_reg != reg_value
                or not self._grads_equal(saved, self.optimizer.parameters)):
            for param, grad in saved:
                param.zero_grad()
                if grad is not None:
                    param._accumulate_grad(grad)
            step.free()
            reason = "build validation failed: replay diverged from eager"
            self._plans[signature] = reason
            self._note(signature, reason)
            self.eager_steps += 1
            return loss_value, reg_value

        self._plans[signature] = step
        self.plans_built += 1
        self.build_s += perf_counter() - started
        _mark_profiler()
        self.eager_steps += 1  # the warmup itself ran eagerly
        return loss_value, reg_value

    def _shadow(self, signature, step, batch):
        """First replay on fresh data, shadow-checked by a full eager step."""
        state_pre = _rng_state(self.rng)
        replay_loss, replay_reg = step.replay(batch)
        saved = self._param_grads()
        self.rng.bit_generator.state = state_pre
        eager_loss, eager_reg = self._eager(batch)
        if (eager_loss == replay_loss and eager_reg == replay_reg
                and self._grads_equal(saved, self.optimizer.parameters)):
            step.trusted = True
            self.plans_validated += 1
        else:
            step.free()
            reason = ("shadow validation failed: replay diverged from "
                      "eager on fresh inputs")
            self._plans[signature] = reason
            self._note(signature, reason)
        # Either way the eager results are authoritative (identical when
        # validation passed).
        return eager_loss, eager_reg
