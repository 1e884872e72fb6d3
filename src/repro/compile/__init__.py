"""Graph-compiled execution: record one step, replay it in place.

The eager engine rebuilds the whole graph — every output array, tape
entry, and scratch buffer — on each step, even though a training run
executes the *same* graph thousands of times.  This package compiles
that repetition away:

* :class:`~repro.compile.recorder.Recorder` captures, from one real
  eager step, an in-place *refresh kernel* per op (installed on the
  recording thread only, through the tensor core's per-thread hooks;
  ops without a kernel are detected and force eager fallback);
* :class:`~repro.compile.plan.ExecutionPlan` linearizes the record into
  fused ``out=`` kernel chains, and :class:`~repro.compile.plan.PlanCache`
  keeps one per batch signature, gated bitwise against eager and pinned
  to eager (reason in ``report()``) when it cannot prove equivalence;
* :class:`~repro.compile.step.StepCompiler` replays full training steps
  (forward + retained backward closures + the gradient buffers every
  tensor keeps across ``zero_grad``) — used by
  ``TrainConfig(compile=True)`` / ``repro train --compile``;
* :class:`~repro.compile.forward.ForwardCompiler` replays tape-free
  ``predict`` calls against a liveness-packed buffer arena — used by
  ``repro.serve``'s micro-batch hot path.

See ``docs/performance.md``.
"""

from repro.compile.forward import CompiledForward, ForwardCompiler
from repro.compile.plan import ExecutionPlan, batch_signature
from repro.compile.recorder import Recorder
from repro.compile.step import CompiledStep, StepCompiler

__all__ = [
    "CompiledForward", "ForwardCompiler", "ExecutionPlan",
    "batch_signature", "Recorder", "CompiledStep", "StepCompiler",
]
