"""The gates every compiled plan passes, on both compilers.

Each scenario runs once through a :class:`ForwardCompiler` and once
through a :class:`StepCompiler`, and every call's answer is compared
bitwise with an eager twin of the same model: a gate that rejects a
plan must still hand the caller the eager answer.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.compile import (CompiledForward, CompiledStep, ForwardCompiler,
                           StepCompiler, batch_signature)
from repro.core.losses import LossBreakdown
from repro.nn import BatchNorm2d, Linear, Module
from repro.optim import Adam
from repro.tensor import Tensor, no_grad
from repro.tensor import tensor as _core

from tests.compile.conftest import make_muse


class Forward:
    """``model.predict``, through a ForwardCompiler or eager."""

    unit = "forwards"
    plan_type = CompiledForward

    def __init__(self, model):
        self.model = model
        self.compiler = ForwardCompiler(model)

    def compiled(self, batch):
        return self.compiler.forward(batch)

    def eager(self, batch):
        with no_grad():
            return np.asarray(self.model.predict(batch))


class Step:
    """One training step, through a StepCompiler or eager.

    A call answers ``((loss, reg), gradients)``: the gradients it
    leaves on the parameters are part of the answer.
    """

    unit = "steps"
    plan_type = CompiledStep

    def __init__(self, model):
        self.model = model
        self.optimizer = Adam(model.parameters(), lr=1e-3)
        self.rng = np.random.default_rng(0)
        self.compiler = StepCompiler(model, self.optimizer, self.rng)

    def compiled(self, batch):
        return self.compiler.step(batch), self._grads()

    def eager(self, batch):
        self.optimizer.zero_grad()
        breakdown, _ = self.model.training_loss(batch, rng=self.rng)
        breakdown.total.backward()
        return (breakdown.total.item(), breakdown.reg.item()), self._grads()

    def _grads(self):
        return [None if p.grad is None else p.grad.copy()
                for p in self.optimizer.parameters]


@pytest.fixture(params=[Forward, Step], ids=["forward", "step"])
def harness(request):
    return request.param


class Head(Module):
    """A model both compilers drive: ``predict`` is ``head(batch)``,
    and the training loss is the mean square of it."""

    def predict(self, batch):
        return self.head(batch).data

    def training_loss(self, batch, rng=None):
        out = self.head(batch)
        loss = (out * out).mean()
        zero = Tensor(0.0)
        breakdown = LossBreakdown(total=loss, dis=zero, push=zero,
                                  pull=zero, reg=loss)
        return breakdown, SimpleNamespace(prediction=out)


class NormHead(Head):
    """A train-mode BatchNorm2d over the closeness frames."""

    def __init__(self, data):
        super().__init__()
        _, length, channels, _, _ = data.train.closeness.shape
        self.norm = BatchNorm2d(length * channels)

    def head(self, batch):
        n, length, channels, h, w = batch.closeness.shape
        return self.norm(Tensor(
            batch.closeness.reshape(n, length * channels, h, w)))


class TanhHead(Head):
    """``Linear(tanh(x))`` whose tanh records the kernel ``kernel(x)``.

    ``kernel`` returns the ``(fn, src)`` the recorder is told computes
    tanh of ``x``; a wrong one is a plan bug the gates must catch.
    """

    def __init__(self, data, kernel):
        super().__init__()
        _, length, channels, h, w = data.train.closeness.shape
        self.kernel = kernel
        self.linear = Linear(length * channels * h * w, channels * h * w,
                             rng=np.random.default_rng(0))

    def head(self, batch):
        # A view of the batch: the leaf aliases the plan's pinned input.
        x = Tensor(batch.closeness.reshape(len(batch), -1))
        out = Tensor._from_op(np.tanh(x.data), (x,), None, name="tanh")
        recorder = _core._THREAD.hooks.recorder
        if recorder is not None:
            fn, src = self.kernel(x.data)
            recorder.ufunc(fn, (src,), out.data)
        return self.linear(out)


def misrecorded(x):
    """Computes sin: every replay diverges, the recorded batch too."""
    return np.sin, x


def stale(x):
    """Reads a private copy of the recorded input: a replay is right on
    the recorded batch and wrong on every other."""
    return np.tanh, x.copy()


def batches(data, count, size=4):
    return [data.train.take(range(i * size, (i + 1) * size))
            for i in range(count)]


def assert_same(got, want):
    """Bitwise (atol 0) equality of two answers."""
    if isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    elif want is None:
        assert got is None
    elif isinstance(want, np.ndarray):
        np.testing.assert_array_equal(got, want)
    else:
        assert got == want


def run_against_eager(harness, make_model, calls):
    """Every batch compiled and on an eager twin; returns the compiled
    harness."""
    compiled, twin = harness(make_model()), harness(make_model())
    for batch in calls:
        assert_same(compiled.compiled(batch), twin.eager(batch))
    return compiled


def test_guard_runs_train_mode_normalization_eager(harness, tiny_data):
    compiled = run_against_eager(harness, lambda: NormHead(tiny_data),
                                 batches(tiny_data, 3))
    report = compiled.compiler.snapshot()
    assert report["plans_built"] == 0
    assert report[f"compiled_{harness.unit}"] == 0
    assert report[f"eager_{harness.unit}"] == 3
    assert "BatchNorm2d" in report["fallbacks"]["guard"]


def test_build_gate_pins_a_diverging_replay(harness, tiny_data):
    calls = batches(tiny_data, 3)
    # For the step, the first call's comparison also checks that the
    # warmup's gradients were put back over the failed replay's.
    compiled = run_against_eager(
        harness, lambda: TanhHead(tiny_data, misrecorded), calls)
    reason = compiled.compiler._plans[batch_signature(calls[0])]
    assert reason.startswith("build validation failed")
    report = compiled.compiler.snapshot()
    assert report["plans_built"] == 0
    assert report["build_s"] == 0.0
    assert report[f"compiled_{harness.unit}"] == 0


def test_shadow_gate_pins_a_stale_input_plan(harness, tiny_data):
    recorded, fresh, later = batches(tiny_data, 3)
    signature = batch_signature(recorded)
    compiled = harness(TanhHead(tiny_data, stale))
    twin = harness(TanhHead(tiny_data, stale))

    assert_same(compiled.compiled(recorded), twin.eager(recorded))
    # The stale plan replays the recorded batch right: it is built.
    assert isinstance(compiled.compiler._plans[signature], harness.plan_type)
    assert_same(compiled.compiled(fresh), twin.eager(fresh))
    assert compiled.compiler._plans[signature].startswith(
        "shadow validation failed")
    assert_same(compiled.compiled(later), twin.eager(later))

    report = compiled.compiler.snapshot()
    assert report["plans_built"] == 1
    assert report["plans_validated"] == 0
    assert report[f"compiled_{harness.unit}"] == 0
    assert report[f"eager_{harness.unit}"] == 3


def test_report_counts_every_byte_a_plan_keeps(harness, tiny_data,
                                               muse_config):
    model = make_muse(muse_config)
    if harness is Forward:
        model.eval()
    compiled = harness(model)
    for batch in batches(tiny_data, 3):  # build, shadow, trusted replay
        compiled.compiled(batch)
    report = compiled.compiler.snapshot()
    [plan] = [entry for entry in compiled.compiler._plans.values()
              if isinstance(entry, harness.plan_type)]
    assert report[f"compiled_{harness.unit}"] == 1
    assert report["arena_bytes"] >= plan.plan.buffer_bytes
    assert report["kernels"] == plan.plan.kernel_count
    assert report["fused_chains"] == plan.plan.fused_chains


def test_both_reports_share_one_key_set(tiny_data):
    keys = []
    for harness in (Forward, Step):
        report = harness(TanhHead(tiny_data, stale)).compiler.snapshot()
        keys.append(set(report) - {f"compiled_{harness.unit}",
                                   f"eager_{harness.unit}"})
    assert keys[0] == keys[1]
