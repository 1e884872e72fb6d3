"""AutoScaler policy, ReplicaPool.scale_to, and server wiring."""

import multiprocessing
import time

import numpy as np
import pytest

from repro.serve import AutoScaler, ForecastServer, ReplicaPool, ServeConfig
from repro.serve import autoscale
from repro.tensor import no_grad

from tests.serve.conftest import TinyForecaster


def offline(model, batch):
    with no_grad():
        return np.asarray(model.predict(batch))


class StubServer:
    """Fabricated telemetry for driving the policy synchronously."""

    def __init__(self, replicas=1):
        self.queue_depth = 0
        self.wait_ms = None
        self.replica_count = replicas
        self.scale_calls = []

    def recent_queue_wait_ms(self):
        return self.wait_ms

    def scale_replicas(self, replicas):
        self.scale_calls.append(replicas)
        self.replica_count = replicas
        return replicas


@pytest.fixture
def policy(monkeypatch):
    """Set the policy constants a test drives: ``policy(PATIENCE=1)``."""
    monkeypatch.setattr(autoscale, "PATIENCE", 2)
    monkeypatch.setattr(autoscale, "COOLDOWN_S", 0.0)

    def set_constants(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(autoscale, name, value)
    return set_constants


def make_scaler(stub):
    return AutoScaler(stub, min_replicas=1, max_replicas=4)


@pytest.mark.usefixtures("policy")
class TestPolicy:
    def test_scale_up_needs_patience_consecutive_pressure(self):
        stub = StubServer(replicas=1)
        scaler = make_scaler(stub)
        stub.queue_depth = 20
        assert scaler.step(now=0.0) == 0  # first pressured sample: wait
        assert scaler.step(now=1.0) == +1
        assert stub.scale_calls == [2]

    def test_a_calm_sample_resets_the_pressure_streak(self):
        stub = StubServer(replicas=1)
        scaler = make_scaler(stub)
        stub.queue_depth = 20
        scaler.step(now=0.0)
        stub.queue_depth = 1  # neither pressured nor slack (depth != 0)
        scaler.step(now=1.0)
        stub.queue_depth = 20
        assert scaler.step(now=2.0) == 0  # streak restarted from zero
        assert stub.scale_calls == []

    def test_queue_wait_alone_is_pressure(self, policy):
        stub = StubServer(replicas=1)
        policy(PATIENCE=1)
        scaler = make_scaler(stub)
        stub.wait_ms = 80.0  # depth stays 0
        assert scaler.step(now=0.0) == +1
        assert stub.replica_count == 2

    def test_slack_scales_down_to_min_and_stops(self, policy):
        stub = StubServer(replicas=3)
        policy(PATIENCE=1)
        scaler = make_scaler(stub)
        stub.wait_ms = 1.0
        assert scaler.step(now=0.0) == -1
        assert scaler.step(now=1.0) == -1
        assert stub.replica_count == 1
        assert scaler.step(now=2.0) == 0  # already at min_replicas
        assert stub.scale_calls == [2, 1]

    def test_pressure_at_max_replicas_does_nothing(self, policy):
        stub = StubServer(replicas=4)
        policy(PATIENCE=1)
        scaler = make_scaler(stub)
        stub.queue_depth = 100
        assert scaler.step(now=0.0) == 0
        assert stub.scale_calls == []

    def test_cooldown_blocks_consecutive_scale_events(self, policy):
        stub = StubServer(replicas=1)
        policy(PATIENCE=1, COOLDOWN_S=10.0)
        scaler = make_scaler(stub)
        stub.queue_depth = 20
        assert scaler.step(now=0.0) == +1
        assert scaler.step(now=5.0) == 0   # inside the cooldown window
        assert scaler.step(now=10.0) == +1  # window over
        assert stub.scale_calls == [2, 3]

    def test_events_record_the_triggering_signals(self, policy):
        stub = StubServer(replicas=1)
        policy(PATIENCE=1)
        scaler = make_scaler(stub)
        stub.queue_depth = 20
        stub.wait_ms = 75.0
        scaler.step(now=0.0)
        stub.queue_depth = 0
        stub.wait_ms = 1.0
        scaler.step(now=1.0)
        snap = scaler.snapshot()
        assert snap["scale_ups"] == 1 and snap["scale_downs"] == 1
        assert snap["observations"] == 2
        up, down = snap["events"]
        assert up == {"direction": "up", "from": 1, "to": 2,
                      "queue_depth": 20, "recent_wait_ms": 75.0}
        assert down["direction"] == "down"
        assert (down["from"], down["to"]) == (2, 1)

    def test_background_driver_steps_and_closes_cleanly(self, policy):
        stub = StubServer(replicas=1)
        policy(PATIENCE=1, INTERVAL_S=0.005)
        scaler = make_scaler(stub)
        stub.queue_depth = 20
        with scaler:
            deadline = time.monotonic() + 10.0
            while not stub.scale_calls and time.monotonic() < deadline:
                time.sleep(0.01)
        assert stub.scale_calls and stub.scale_calls[0] == 2
        scaler.close()  # idempotent

    def test_double_start_rejected(self):
        scaler = make_scaler(StubServer())
        with scaler:
            with pytest.raises(RuntimeError, match="already started"):
                scaler.start()


class TestServeConfigAutoscale:
    def test_requires_both_bounds(self):
        with pytest.raises(ValueError, match="both min_replicas"):
            ServeConfig(replicas=1, min_replicas=1)
        with pytest.raises(ValueError, match="both min_replicas"):
            ServeConfig(replicas=1, max_replicas=2)

    def test_requires_a_replica_pool(self):
        with pytest.raises(ValueError, match="replica pool"):
            ServeConfig(min_replicas=1, max_replicas=2)

    def test_starting_size_must_sit_inside_the_bounds(self):
        with pytest.raises(ValueError, match="min_replicas <= replicas"):
            ServeConfig(replicas=4, min_replicas=1, max_replicas=2)
        ServeConfig(replicas=2, min_replicas=1, max_replicas=3)  # valid


class TestPoolScaling:
    def test_scale_to_lifecycle(self, tiny_data):
        """Grow and shrink one pool; forecasts stay correct throughout.

        Different replica counts shard the batch into different GEMM
        shapes, so cross-count comparisons are float-tolerance (BLAS
        reduction order), while returning to the original count is
        bitwise.
        """
        test = tiny_data.test
        model = TinyForecaster(tiny_data, seed=0)
        expected = offline(TinyForecaster(tiny_data, seed=0), test)
        with ReplicaPool(model, test, replicas=1, max_batch=16) as pool:
            base, _gen = pool.predict(test)
            assert np.allclose(base, expected, atol=1e-12)

            assert pool.scale_to(3) == 3
            assert pool.size == 3
            grown, _gen = pool.predict(test)
            assert np.allclose(grown, expected, atol=1e-12)

            # scale_to is idempotent at the current size.
            assert pool.scale_to(3) == 3
            assert pool.size == 3

            assert pool.scale_to(1) == 1
            assert pool.size == 1
            shrunk, _gen = pool.predict(test)
            assert np.array_equal(shrunk, base)  # same shard shape: bitwise

            with pytest.raises(ValueError, match="replicas"):
                pool.scale_to(0)
        # No orphan replica processes after close().
        assert not multiprocessing.active_children()
        with pytest.raises(RuntimeError, match="not running"):
            pool.scale_to(2)

    def test_server_autoscaler_wiring(self, tiny_data):
        test = tiny_data.test
        model = TinyForecaster(tiny_data, seed=0)
        expected = offline(TinyForecaster(tiny_data, seed=0), test)
        config = ServeConfig(max_batch=16, max_wait_ms=2.0, replicas=1,
                             min_replicas=1, max_replicas=3)
        with ForecastServer(model, config, template=test) as server:
            assert server.autoscaler is not None
            assert server.replica_count == 1
            # Drive a scale event through the server-facing accessor the
            # policy uses; the autoscaler itself sees no load here.
            assert server.scale_replicas(2) == 2
            assert server.replica_count == 2
            served = server.forecast(test)
            assert np.allclose(served, expected, atol=1e-12)
            snap = server.snapshot()
        assert snap["live_replicas"] == 2
        assert snap["autoscaler"]["config"]["max_replicas"] == 3
        assert snap["autoscaler"]["events"] == []  # no load, no events
        assert not multiprocessing.active_children()

    def test_scale_replicas_without_a_pool_raises(self, tiny_data,
                                                  tiny_model):
        with ForecastServer(tiny_model, ServeConfig(max_wait_ms=0.5),
                            template=tiny_data.test) as server:
            assert server.replica_count == 0
            with pytest.raises(RuntimeError, match="replica pool"):
                server.scale_replicas(2)
