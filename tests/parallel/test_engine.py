"""ParallelEngine: gradient equivalence, determinism, lifecycle.

The equivalence contract (ISSUE 5): for a model whose loss does not
consume the per-step rng, the reduced gradient the engine installs on
``param.grad`` equals the single-process batch gradient within float
summation tolerance — 1e-6 for float32, 1e-12 for float64 — at every
worker count, uneven tails included.  At a fixed seed and worker count
the run is bit-deterministic run-to-run.
"""

import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.data.windows import SampleBatch
from repro.nn import Parameter
from repro.optim import Adam
from repro.parallel import ParallelEngine, ParallelWorkerError, worker_rank
from repro.tensor.tensor import _installed
from tests.robustness.injectors import ToyForecaster


def _toy_setup(tiny_data, dtype=np.float64, n=13, seed=0):
    """Model + optimizer + one uneven global batch in ``dtype``."""
    model = ToyForecaster(tiny_data, seed=seed)
    for param in model.parameters():
        param.data = param.data.astype(dtype)
    train = tiny_data.train.astype(dtype)
    batch = train.slice(0, n)
    optimizer = Adam(model.parameters(), lr=1e-3)
    return model, optimizer, train, batch


def _serial_gradient(model, batch):
    """Single-process batch gradient, flattened per parameter."""
    for param in model.parameters():
        param.grad = None
    breakdown, _ = model.training_loss(batch, rng=np.random.default_rng(0))
    breakdown.total.backward()
    grads = [param.grad.copy() for param in model.parameters()]
    loss = float(breakdown.total.item())
    for param in model.parameters():
        param.grad = None
    return grads, loss


def _engine_gradient(model, optimizer, train, batch_size, workers, n):
    """Reduced gradient after one parallel step over samples [0, n)."""
    with ParallelEngine(model, optimizer, train, batch_size, workers) as engine:
        steps = engine.epoch_steps(np.arange(n), epoch=0)
        loss, _reg = next(steps)
        # The allreduce sums into the optimizer's gradient arena and
        # installs its views: no private reduced buffer in between.
        _flat, views = optimizer.flat_grads()
        for param, view in zip(optimizer.parameters, views):
            assert param.grad is None or param.grad is view
        grads = [param.grad.copy() if param.grad is not None else None
                 for param in model.parameters()]
        steps.close()
    return grads, loss


class TestGradientEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize("dtype,atol", [(np.float32, 1e-6),
                                            (np.float64, 1e-12)])
    def test_reduced_equals_serial_batch_gradient(self, tiny_data, workers,
                                                  dtype, atol):
        n = 13  # indivisible by every worker count above: uneven shards
        model, optimizer, train, batch = _toy_setup(tiny_data, dtype, n=n)
        serial_grads, serial_loss = _serial_gradient(model, batch)
        engine_grads, engine_loss = _engine_gradient(
            model, optimizer, train, batch_size=n, workers=workers, n=n)
        assert engine_loss == pytest.approx(serial_loss, abs=atol * 10)
        for serial, reduced in zip(serial_grads, engine_grads):
            assert reduced is not None
            assert reduced.dtype == np.dtype(dtype)
            np.testing.assert_allclose(reduced, serial, atol=atol, rtol=0)

    def test_bit_deterministic_run_to_run(self, tiny_data):
        n, workers = 13, 3
        results = []
        for _ in range(2):
            model, optimizer, train, _ = _toy_setup(tiny_data, n=n)
            grads, loss = _engine_gradient(model, optimizer, train,
                                           batch_size=n, workers=workers, n=n)
            results.append((grads, loss))
        assert results[0][1] == results[1][1]  # bit-equal loss
        for first, second in zip(results[0][0], results[1][0]):
            np.testing.assert_array_equal(first, second)

    def test_uneven_tail_batch(self, tiny_data):
        # 13 samples at batch_size 8: a full batch then a tail of 5,
        # sharded 3/2 over two workers.  Both steps must yield, and the
        # tail's reduced gradient must match its serial counterpart.
        model, optimizer, train, _ = _toy_setup(tiny_data, n=13)
        tail = train.slice(8, 13)
        serial_grads, serial_loss = _serial_gradient(model, tail)
        with ParallelEngine(model, optimizer, train, 8, 2) as engine:
            outputs = list(engine.epoch_steps(np.arange(13), epoch=0))
            assert len(outputs) == 2
            tail_grads = [param.grad.copy() for param in model.parameters()]
        assert outputs[1][0] == pytest.approx(serial_loss, abs=1e-11)
        for serial, reduced in zip(serial_grads, tail_grads):
            np.testing.assert_allclose(reduced, serial, atol=1e-12, rtol=0)

    def test_unused_parameter_gets_no_gradient(self, tiny_data):
        # A parameter no worker touched must end with grad None —
        # matching the serial path, where backward never visits it.
        model = ToyForecaster(tiny_data)
        model.dead = Parameter(np.zeros(3))
        optimizer = Adam(model.parameters(), lr=1e-3)
        with ParallelEngine(model, optimizer, tiny_data.train, 8, 2) as engine:
            next(steps := engine.epoch_steps(np.arange(8), epoch=0))
            live = [param.grad is not None for param in model.parameters()]
            steps.close()
        assert sum(live) == len(live) - 1
        assert model.dead.grad is None


class TestLifecycle:
    def test_close_restores_private_parameters(self, tiny_data):
        model, optimizer, train, batch = _toy_setup(tiny_data)
        before = [param.data.copy() for param in model.parameters()]
        engine = ParallelEngine(model, optimizer, train, 8, 2)
        engine.start()
        shared = [param.data.base is not None for param in model.parameters()]
        assert all(shared)  # bound into the flat shared buffer
        engine.close()
        for param, original in zip(model.parameters(), before):
            assert param.data.base is None  # private again
            np.testing.assert_array_equal(param.data, original)
        # The model keeps working after the segment is unlinked.
        assert np.isfinite(model.predict(batch)).all()
        assert multiprocessing.active_children() == []

    def test_close_is_idempotent_and_leaves_no_children(self, tiny_data):
        model, optimizer, train, _ = _toy_setup(tiny_data)
        engine = ParallelEngine(model, optimizer, train, 8, 2)
        engine.start()
        engine.close()
        engine.close()
        assert multiprocessing.active_children() == []

    def test_worker_drops_parent_forward_hook(self, tiny_data):
        # A forked worker must not run the parent's module-call observer
        # (nor its anomaly hook or kernel recorder).
        parent = os.getpid()

        def parent_only(module, forward, args, kwargs):
            if os.getpid() != parent:
                raise RuntimeError("parent's forward hook ran in a worker")
            return forward(*args, **kwargs)

        model, optimizer, train, batch = _toy_setup(tiny_data, n=8)
        serial_grads, serial_loss = _serial_gradient(model, batch)
        with _installed(module_call=parent_only):
            grads, loss = _engine_gradient(model, optimizer, train,
                                           batch_size=8, workers=1, n=8)
        assert loss == pytest.approx(serial_loss, abs=1e-11)
        for serial, reduced in zip(serial_grads, grads):
            np.testing.assert_allclose(reduced, serial, atol=1e-12, rtol=0)

    def test_epoch_steps_outside_context_raises(self, tiny_data):
        model, optimizer, train, _ = _toy_setup(tiny_data)
        engine = ParallelEngine(model, optimizer, train, 8, 2)
        with pytest.raises(RuntimeError):
            next(engine.epoch_steps(np.arange(8), epoch=0))
        engine.start()
        engine.close()
        with pytest.raises(RuntimeError):
            next(engine.epoch_steps(np.arange(8), epoch=0))

    def test_abandoned_epoch_keeps_engine_usable(self, tiny_data):
        # Breaking out of an epoch mid-stream (early stop, interrupt)
        # must stop the prefetch producer and leave the pool ready for
        # the next epoch.
        model, optimizer, train, _ = _toy_setup(tiny_data, n=16)
        with ParallelEngine(model, optimizer, train, 4, 2) as engine:
            steps = engine.epoch_steps(np.arange(16), epoch=0)
            next(steps)
            steps.close()  # abandon after 1 of 4 steps
            outputs = list(engine.epoch_steps(np.arange(16), epoch=1))
            assert len(outputs) == 4
        assert multiprocessing.active_children() == []

    def test_telemetry_counters(self, tiny_data):
        model, optimizer, train, _ = _toy_setup(tiny_data, n=16)
        with ParallelEngine(model, optimizer, train, 8, 2) as engine:
            list(engine.epoch_steps(np.arange(16), epoch=0))
            telemetry = engine.snapshot()
        assert telemetry["workers"] == 2
        assert telemetry["steps"] == 2
        assert telemetry["reduce_count"] == 2
        assert telemetry["prefetch_stall_count"] == 2
        assert telemetry["shared_mib"] > 0
        assert len(telemetry["blas_modes"]) == 2
        assert all(isinstance(mode, str) for mode in telemetry["blas_modes"])


class _WorkerBomb:
    """Delegating wrapper that raises — but only inside worker replicas."""

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        return getattr(self._model, name)

    def training_loss(self, batch, rng=None):
        if worker_rank() is not None:
            raise ValueError(f"boom in rank {worker_rank()}")
        return self._model.training_loss(batch, rng=rng)


class TestFailureModes:
    def test_worker_exception_surfaces_as_parallel_error(self, tiny_data):
        model = _WorkerBomb(ToyForecaster(tiny_data))
        optimizer = Adam(model.parameters(), lr=1e-3)
        with pytest.raises(ParallelWorkerError, match="boom in rank"):
            with ParallelEngine(model, optimizer, tiny_data.train, 8, 2) as engine:
                list(engine.epoch_steps(np.arange(8), epoch=0))
        assert multiprocessing.active_children() == []

    def test_killed_worker_fails_the_next_step(self, tiny_data):
        # A worker that dies between steps must surface as the engine's
        # own error (the CLI maps it to a one-line exit 1), not as a
        # raw BrokenPipeError from the dispatch.
        model, optimizer, train, _ = _toy_setup(tiny_data, n=16)
        with ParallelEngine(model, optimizer, train, 4, 2) as engine:
            steps = engine.epoch_steps(np.arange(16), epoch=0)
            next(steps)
            victim = sorted(multiprocessing.active_children(),
                            key=lambda proc: proc.name)[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(5.0)
            with pytest.raises(ParallelWorkerError,
                               match=r"worker 1 died \(exit code -9\)"):
                next(steps)
        assert multiprocessing.active_children() == []

    def test_constructor_validation(self, tiny_data):
        model = ToyForecaster(tiny_data)
        optimizer = Adam(model.parameters(), lr=1e-3)
        with pytest.raises(ValueError, match="workers"):
            ParallelEngine(model, optimizer, tiny_data.train, 8, 0)
        with pytest.raises(ValueError, match="batch_size"):
            ParallelEngine(model, optimizer, tiny_data.train, 0, 2)

    def test_mixed_parameter_dtypes_rejected(self, tiny_data):
        model = ToyForecaster(tiny_data)
        model.parameters()[0].data = model.parameters()[0].data.astype(np.float32)
        optimizer = Adam(model.parameters(), lr=1e-3)
        with pytest.raises(ValueError, match="uniform parameter dtype"):
            ParallelEngine(model, optimizer, tiny_data.train, 8, 2)

    def test_start_twice_rejected(self, tiny_data):
        model, optimizer, train, _ = _toy_setup(tiny_data)
        engine = ParallelEngine(model, optimizer, train, 8, 1)
        engine.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                engine.start()
        finally:
            engine.close()


def test_worker_rank_is_none_in_parent():
    assert worker_rank() is None
