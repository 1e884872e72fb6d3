"""ReplicaPool: forked replicas over one shared parameter buffer.

Fork-heavy tests are consolidated so each pool lifecycle is paid once.
"""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.parallel import ParallelWorkerError, worker_rank
from repro.serve import ForecastServer, ReplicaPool, ServeConfig
from repro.tensor import no_grad
from repro.tensor.tensor import _installed

from tests.serve.conftest import TinyForecaster


def offline(model, batch):
    with no_grad():
        return np.asarray(model.predict(batch))


def _kill_replica(pool_rank):
    """SIGKILL the replica process of ``pool_rank`` and reap it."""
    victim = sorted(multiprocessing.active_children(),
                    key=lambda proc: proc.name)[pool_rank]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(5.0)


class _FlakyForecaster(TinyForecaster):
    """Raises on the shard starting at sample ``fail_at``; sleeps on the
    shard starting at sample ``slow_at``."""

    def __init__(self, data, fail_at, slow_at):
        super().__init__(data, seed=0)
        self.fail_at = fail_at
        self.slow_at = slow_at

    def predict(self, batch):
        first = int(batch.indices[0])
        if first == self.fail_at:
            raise ValueError("replica boom")
        if first == self.slow_at:
            time.sleep(0.3)
        return super().predict(batch)


class TestReplicaPool:
    def test_predict_install_and_close_lifecycle(self, tiny_data):
        test = tiny_data.test  # 13 samples
        model = TinyForecaster(tiny_data, seed=0)
        other = TinyForecaster(tiny_data, seed=9)
        expected_a = offline(TinyForecaster(tiny_data, seed=0), test)
        expected_b = offline(TinyForecaster(tiny_data, seed=9), test)

        with ReplicaPool(model, test, replicas=2, max_batch=8) as pool:
            # Parameters now alias the shared flat buffer.
            assert all(p.data.base is not None for p in model.parameters())

            # Sharded forward == single-process forward, generation 0.
            rows, generation = pool.predict(test.slice(0, 8))
            assert generation == 0
            assert np.allclose(rows, expected_a[:8], atol=1e-12)

            # Oversized request (13 > max_batch 8): served in chunks
            # under one lock hold — still row-aligned, one generation.
            rows, generation = pool.predict(test)
            assert generation == 0
            assert rows.shape == expected_a.shape
            assert np.allclose(rows, expected_a, atol=1e-12)

            # Hot swap: exactly one generation bump per install, and
            # the weights land in the *shared* buffer (no rebinding).
            before = [id(p.data) for p in model.parameters()]
            assert pool.install(other.state_dict()) == 1
            assert pool.generation == 1
            assert [id(p.data) for p in model.parameters()] == before
            assert all(p.data.base is not None for p in model.parameters())

            rows, generation = pool.predict(test)
            assert generation == 1
            assert np.allclose(rows, expected_b, atol=1e-12)

        # close() re-privatises the weights: the model survives the
        # pool and still computes with the last installed generation.
        assert all(p.data.base is None for p in model.parameters())
        assert np.allclose(offline(model, test), expected_b, atol=1e-12)

    def test_predict_rejects_empty_and_closed(self, tiny_data):
        model = TinyForecaster(tiny_data)
        pool = ReplicaPool(model, tiny_data.test, replicas=1, max_batch=4)
        pool.start()
        try:
            with pytest.raises(ValueError, match="empty"):
                pool.predict(tiny_data.test.slice(0, 0))
        finally:
            pool.close()
        with pytest.raises(RuntimeError, match="not running"):
            pool.predict(tiny_data.test.slice(0, 1))

    def test_replica_drops_parent_forward_hook(self, tiny_data):
        # A forked replica must not run the parent's module-call observer
        # (nor its anomaly hook or kernel recorder).
        parent = os.getpid()

        def parent_only(module, forward, args, kwargs):
            if os.getpid() != parent:
                raise RuntimeError("parent's forward hook ran in a replica")
            return forward(*args, **kwargs)

        test = tiny_data.test
        model = TinyForecaster(tiny_data, seed=0)
        expected = offline(TinyForecaster(tiny_data, seed=0), test)
        with _installed(module_call=parent_only), \
                ReplicaPool(model, test, replicas=1, max_batch=8) as pool:
            rows, _ = pool.predict(test.slice(0, 4))
        np.testing.assert_allclose(rows, expected[:4], atol=1e-12, rtol=0)

    def test_invalid_construction(self, tiny_data):
        model = TinyForecaster(tiny_data)
        with pytest.raises(ValueError, match="replicas"):
            ReplicaPool(model, tiny_data.test, replicas=0, max_batch=4)
        with pytest.raises(ValueError, match="max_batch"):
            ReplicaPool(model, tiny_data.test, replicas=1, max_batch=0)


class TestReplicaFaults:
    def test_replica_error_does_not_corrupt_the_next_request(self,
                                                              tiny_data):
        # Request 1 = samples [0, 4): replica 0's shard [0, 2) raises.
        # Request 2 = samples [4, 8): replica 1's shard [6, 8) is slow.
        # Replica 1's reply to request 1 must be read before request 1
        # raises, or request 2 reads it as its own and returns before
        # replica 1 has written its rows.
        test = tiny_data.test
        model = _FlakyForecaster(tiny_data, fail_at=int(test.indices[0]),
                                 slow_at=int(test.indices[6]))
        expected = offline(TinyForecaster(tiny_data, seed=0), test)
        with ReplicaPool(model, test, replicas=2, max_batch=8) as pool:
            with pytest.raises(ParallelWorkerError,
                               match="replica 0 failed: ValueError: "
                                     "replica boom"):
                pool.predict(test.slice(0, 4))
            rows, _generation = pool.predict(test.slice(4, 8))
            assert pool.size == 2  # a raising replica stays in the pool
        np.testing.assert_allclose(rows, expected[4:8], atol=1e-12, rtol=0)
        assert multiprocessing.active_children() == []

    def test_dead_replica_leaves_the_pool(self, tiny_data):
        test = tiny_data.test
        model = TinyForecaster(tiny_data, seed=0)
        expected = offline(TinyForecaster(tiny_data, seed=0), test)
        with ReplicaPool(model, test, replicas=2, max_batch=8) as pool:
            _kill_replica(1)
            with pytest.raises(ParallelWorkerError,
                               match=r"replica 1 died \(exit code -9\)"):
                pool.predict(test.slice(0, 8))
            assert pool.size == 1
            # Later requests shard over the survivor.
            rows, generation = pool.predict(test)
            np.testing.assert_allclose(rows, expected, atol=1e-12, rtol=0)
            assert generation == 0

            _kill_replica(0)
            with pytest.raises(ParallelWorkerError, match="replica 0 died"):
                pool.predict(test.slice(0, 4))
            assert pool.size == 0
            with pytest.raises(ParallelWorkerError, match="no live replica"):
                pool.predict(test.slice(0, 4))
        assert multiprocessing.active_children() == []

    def test_worker_rank_is_set_inside_replicas(self, tiny_data):
        test = tiny_data.test

        class RankEcho(TinyForecaster):
            def predict(self, batch):
                return np.full((len(batch),) + self._shape,
                               float(worker_rank()))

        with ReplicaPool(RankEcho(tiny_data), test, replicas=2,
                         max_batch=8) as pool:
            rows, _generation = pool.predict(test.slice(0, 4))
        assert rows[:2].max() == rows[:2].min() == 0.0
        assert rows[2:].max() == rows[2:].min() == 1.0


class TestServerWithReplicas:
    def test_served_equals_offline_through_forked_replicas(self, tiny_data):
        test = tiny_data.test
        model = TinyForecaster(tiny_data, seed=0)
        expected = offline(TinyForecaster(tiny_data, seed=0), test)
        config = ServeConfig(max_batch=8, max_wait_ms=2.0, replicas=2)
        with ForecastServer(model, config, template=test) as server:
            served = server.forecast(test)
            snap = server.snapshot()
        assert np.allclose(served, expected, atol=1e-12)
        assert snap["replicas"] == 2
        assert snap["shared_mib"] > 0
        assert len(snap["blas_modes"]) == 2
