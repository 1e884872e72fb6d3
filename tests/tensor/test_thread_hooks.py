"""Instrumentation hooks are per thread, like grad mode.

Each case installs one hook on the main thread while a second thread,
started beforehand and released by an event, runs exactly one op or
module call.  The hook must see none of it: a profiler, anomaly check,
graph tracer or kernel recorder on one thread used to act on every
thread's ops (the stream runtime forecasts on one thread while it
retrains on another).
"""

import threading

import numpy as np

from repro.compile import ForwardCompiler, Recorder
from repro.compile.forward import CompiledForward
from repro.data.windows import SampleBatch
from repro.inspect.trace import GraphTracer
from repro.nn import Module
from repro.profiling import profile
from repro.tensor import Tensor, conv2d, detect_anomaly, is_anomaly_enabled
from repro.tensor.scratch import default_pool
from repro.tensor.tensor import _installed

TIMEOUT_S = 30.0


class SecondThread:
    """A thread, started now, that calls ``fn`` once when released."""

    def __init__(self, fn):
        self._go = threading.Event()
        self._result = None
        self._error = None
        self._thread = threading.Thread(target=self._main, args=(fn,),
                                        daemon=True)
        self._thread.start()

    def _main(self, fn):
        if not self._go.wait(TIMEOUT_S):
            return
        try:
            self._result = fn()
        except Exception as exc:  # re-raised on the main thread by join()
            self._error = exc

    def release(self):
        self._go.set()

    def join(self):
        """Wait for ``fn`` to return; re-raise its error, else return its value."""
        self._thread.join(TIMEOUT_S)
        assert not self._thread.is_alive(), "second thread hung"
        if self._error is not None:
            raise self._error
        return self._result

    def run(self):
        """Release the thread and wait until ``fn`` has returned."""
        self.release()
        return self.join()


class Scale(Module):
    def forward(self, x):
        return x * 2.0


def test_profiler_ignores_another_threads_ops():
    other = SecondThread(lambda: Tensor(np.ones(4), requires_grad=True).exp())
    with profile() as prof:
        other.run()
    assert prof.stats == {}
    assert prof.tape_bytes == 0


def test_detect_anomaly_ignores_another_threads_ops():
    def log_of_negative():
        with np.errstate(invalid="ignore"):
            return is_anomaly_enabled(), Tensor([-1.0]).log().data

    other = SecondThread(log_of_negative)
    with detect_anomaly():
        enabled_there, out = other.run()
    assert enabled_there is False
    assert np.isnan(out).all()


def test_tracer_records_only_its_own_ops():
    model = Scale()
    x = Tensor(np.ones(3))
    other = SecondThread(lambda: Tensor(np.ones(2)).tanh())

    def traced():
        y = model(x)
        other.run()
        return y.exp()

    trace = GraphTracer(model).run(traced)
    assert trace.error is None
    assert [(e.op, e.module) for e in trace.events] == [
        ("mul", "Scale"), ("exp", "")]


def test_tracer_module_path_ignores_another_threads_module_call():
    inside, leave = threading.Event(), threading.Event()

    class Parked(Module):
        def forward(self):
            inside.set()
            leave.wait(TIMEOUT_S)

    other = SecondThread(Parked())
    x = Tensor(np.ones(3))

    def traced():
        other.release()
        assert inside.wait(TIMEOUT_S)
        try:
            # The other thread is inside Parked.__call__ right now.
            return x.exp()
        finally:
            leave.set()
            other.join()

    trace = GraphTracer().run(traced)
    assert trace.error is None
    assert [(e.op, e.module) for e in trace.events] == [("exp", "")]


def test_recorder_gets_no_records_or_scratch_from_another_thread():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 2, 5, 5)))
    weight = Tensor(rng.standard_normal((3, 2, 3, 3)))
    other = SecondThread(lambda: conv2d(x, weight, padding=1))
    recorder = Recorder()
    with _installed(recorder=recorder):
        out = other.run()
    assert out.shape == (1, 3, 5, 5)
    # The plan-private pool must never serve another thread's conv.
    assert recorder.scratch.requested_bytes == 0
    assert len(recorder.scratch) == 0
    assert recorder.records == []
    assert recorder.finalize() is None


class TwoOps:
    """``predict`` runs one op, calls ``between``, then runs another."""

    def __init__(self, between=None):
        self.between = between

    def modules(self):
        return []

    def predict(self, batch):
        y = Tensor(batch.closeness).exp()
        if self.between is not None:
            self.between()
        return y.tanh().data


def _batch(n):
    shape = (n, 1, 2, 2, 2)
    return SampleBatch(closeness=np.full(shape, 0.5),
                       period=np.zeros(shape), trend=np.zeros(shape),
                       target=np.zeros((n, 2, 2, 2)),
                       indices=np.arange(n))


def _plan_kernels(compiler):
    (plan,) = [entry.plan for entry in compiler._plans.values()
               if isinstance(entry, CompiledForward)]
    return plan.kernel_count


def test_forward_compiler_plan_holds_only_its_own_kernels():
    batch = _batch(2)
    quiet = ForwardCompiler(TwoOps())
    expected = quiet.forward(batch)
    assert quiet.snapshot()["fallbacks"] == {}

    def other_op():
        SecondThread(lambda: Tensor(np.ones(4)).exp()).run()

    busy = ForwardCompiler(TwoOps(between=other_op))
    np.testing.assert_array_equal(busy.forward(batch), expected)
    assert busy.snapshot()["fallbacks"] == {}
    assert _plan_kernels(busy) == _plan_kernels(quiet)


def test_same_signature_convs_on_two_threads_keep_their_own_workspaces():
    """Two threads run convs of one signature at once, each on its own
    default pool: each pool caches its own workspaces, so neither
    thread's buffers or padded gradient see the other's writes."""
    rng = np.random.default_rng(3)
    inputs = [rng.standard_normal((2, 4, 6, 10)) for _ in range(2)]
    weight = rng.standard_normal((3, 4, 3, 3))
    rounds = 20
    barrier = threading.Barrier(2, timeout=TIMEOUT_S)

    def run(x, start=None):
        if start is not None:
            start.wait()
        results = []
        for _ in range(rounds):
            xt = Tensor(x, requires_grad=True)
            wt = Tensor(weight, requires_grad=True)
            out = conv2d(xt, wt, padding=1)
            (out * out).sum().backward()
            results.append((out.data, xt.grad, wt.grad))
        return results, default_pool()

    threads = [SecondThread(lambda x=x: run(x, barrier)) for x in inputs]
    for thread in threads:
        thread.release()
    answers = [thread.join() for thread in threads]
    (_, pool_a), (_, pool_b) = answers
    assert pool_a is not pool_b
    assert pool_a._signatures.keys() == pool_b._signatures.keys()
    for key, workspace in pool_a._signatures.items():
        assert workspace is not pool_b._signatures[key]
    for x, (results, _) in zip(inputs, answers):
        serial, _ = run(x)
        for got, expected in zip(results, serial):
            for a, c in zip(got, expected):
                np.testing.assert_array_equal(a, c)
