"""Graph-compiled training steps: record once, replay in place.

:class:`StepCompiler` is the :class:`~repro.compile.plan.PlanCache`
around the trainer's serial step.  It records one *real* eager step
per batch signature with ``backward(retain_graph=True)``, keeping the
whole graph — every forward buffer, every backward closure — alive as
a template.  The recorded kernels form an
:class:`~repro.compile.plan.ExecutionPlan` that refreshes those same
buffers in place; replaying a step is then

1. copy the new batch into the pinned warmup input arrays (the graph's
   leaves alias them),
2. ``zero_grad`` every node — each keeps its gradient buffer, so the
   first deposit of the replay overwrites it in place,
3. execute the plan (fused ``out=`` kernels, zero forward allocations),
4. re-walk the retained backward closures over the precomputed
   topological order, depositing gradients into the reused buffers.

The gates compare the loss, the regularizer and every parameter
gradient, rewinding the trainer's generator before each replay.  A
rejected plan frees its retained graph; when the build gate rejects
one, the warmup's gradients, which its replay overwrote, are put back.
"""

from __future__ import annotations

import numpy as np

from repro.compile.plan import ExecutionPlan, PlanCache, _mark_profiler
from repro.tensor import tensor as _core

__all__ = ["CompiledStep", "StepCompiler"]


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


class StepCompiler(PlanCache):
    """Per-signature plan cache around a model/optimizer/rng triple."""

    _unit = "steps"

    def __init__(self, model, optimizer, rng):
        super().__init__(model)
        self.optimizer = optimizer
        self.rng = rng

    def step(self, batch):
        """Run one training step; compiled replay when a plan is trusted.

        Always leaves the same post-state as the eager step: loss/reg
        returned, per-parameter gradients deposited, rng advanced by
        exactly one step's draws.  The calling thread's profiler, if
        any, sees the eager steps' ops.
        """
        return self._dispatch(batch)

    def _run(self, batch, recording):
        self.optimizer.zero_grad()
        _mark_profiler()
        breakdown, _outputs = self.model.training_loss(batch, rng=self.rng)
        breakdown.total.backward(retain_graph=recording)
        return (breakdown.total.item(), breakdown.reg.item()), breakdown

    def _plan(self, recorder, batch, breakdown):
        plan = ExecutionPlan(recorder.records)
        pins = (batch.closeness, batch.period, batch.trend, batch.target)
        return CompiledStep(plan, breakdown, pins,
                            *self._footprint(plan, recorder.scratch))

    def _observe(self, result):
        grads = tuple(None if p.grad is None else p.grad.copy()
                      for p in self.optimizer.parameters)
        return (*result, grads)

    def _rngs(self):
        return (self.rng,)

    def _drop(self, breakdown):
        _core._free_tape(breakdown.total._topological_order())

    def _reject(self, step, expected=None):
        if expected is not None:
            for param, grad in zip(self.optimizer.parameters, expected[-1]):
                param.zero_grad()
                if grad is not None:
                    param._accumulate_grad(grad)
        step.free()
