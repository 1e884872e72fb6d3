"""ForecastCache: memoization, single-flight, generations."""

import threading

import numpy as np
import pytest

from repro.optim import Adam
from repro.serve import ForecastCache, ForecastServer, ServeConfig
from repro.training import save_checkpoint

from tests.serve.conftest import TinyForecaster
from tests.stream.test_runtime import (
    SHAPE,
    make_flows,
    make_model,
    make_periodicity,
)


class CountingForecaster(TinyForecaster):
    """TinyForecaster that counts predict() calls (the server runs them
    one at a time under its forward lock)."""

    def __init__(self, data, seed=0):
        super().__init__(data, seed=seed)
        self.forwards = 0

    def predict(self, batch):
        self.forwards += 1
        return super().predict(batch)


def streaming_server(model, data, **config):
    """Started streaming server with a warmed window; caller closes."""
    flows = data.scaler.transform(data.dataset.flows)
    server = ForecastServer(
        model, ServeConfig(max_wait_ms=0.5, **config),
        periodicity=data.periodicity, frame_shape=flows.shape[1:])
    server.start()
    for frame in flows[:data.periodicity.min_index]:
        server.cache.push(frame)
    return server, flows


class TestForecastCacheUnit:
    def test_owner_then_hit(self):
        cache = ForecastCache(capacity=4)
        kind, future = cache.lookup(("k", 0))
        assert kind == "owner"
        value = cache.complete(("k", 0), np.arange(4.0))
        assert future.result(timeout=5) is value
        assert not value.flags.writeable
        kind, got = cache.lookup(("k", 0))
        assert kind == "hit" and got is value

    def test_join_receives_the_owners_result(self):
        cache = ForecastCache()
        _kind, _future = cache.lookup(("k", 0))
        kind, joined = cache.lookup(("k", 0))
        assert kind == "join"
        value = cache.complete(("k", 0), np.ones(3))
        assert joined.result(timeout=5) is value

    def test_store_false_resolves_but_does_not_memoize(self):
        cache = ForecastCache()
        _kind, _future = cache.lookup(("k", 0))
        kind, joined = cache.lookup(("k", 0))
        value = cache.complete(("k", 0), np.ones(3), store=False)
        assert joined.result(timeout=5) is value
        assert len(cache) == 0
        kind, _token = cache.lookup(("k", 0))
        assert kind == "owner"  # nothing memoized: next request recomputes

    def test_fail_delivers_the_exception_to_joiners(self):
        cache = ForecastCache()
        cache.lookup(("k", 0))
        _kind, joined = cache.lookup(("k", 0))
        cache.fail(("k", 0), RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            joined.result(timeout=5)
        kind, _token = cache.lookup(("k", 0))
        assert kind == "owner"  # failures are not memoized

    def test_lru_eviction_respects_capacity(self):
        cache = ForecastCache(capacity=2)
        for i in range(3):
            cache.lookup(("k", i))
            cache.complete(("k", i), np.full(2, float(i)))
        assert len(cache) == 2
        kind, _token = cache.lookup(("k", 0))
        assert kind == "owner"  # oldest entry was evicted
        assert cache.snapshot()["evictions"] == 1

    def test_snapshot_counters(self):
        cache = ForecastCache()
        cache.lookup(("k", 0))           # miss
        cache.lookup(("k", 0))           # coalesced
        cache.complete(("k", 0), np.zeros(1))
        cache.lookup(("k", 0))           # hit
        snap = cache.snapshot()
        assert snap["misses"] == 1
        assert snap["coalesced"] == 1
        assert snap["hits"] == 1
        assert snap["entries"] == 1 and snap["inflight"] == 0

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            ForecastCache(capacity=0)


class TestServerResultCache:
    def test_hit_is_bit_identical_to_recompute(self, tiny_data):
        model = TinyForecaster(tiny_data)
        server, _flows = streaming_server(model, tiny_data)
        try:
            first, index, _gen, _imputed = server.forecast_tick()
            again, index2, _gen, _imputed = server.forecast_tick()
            assert again is first and index2 == index
            assert not first.flags.writeable
            sample, _imputed = server.cache.sample()
        finally:
            server.close()
        assert int(sample.indices[0]) == index
        assert np.array_equal(first, model.predict(sample)[0])

    def test_push_tick_invalidates(self, tiny_data):
        # After a push the next forecast is a fresh forward for the
        # next index: its sample carries a new key.
        model = TinyForecaster(tiny_data)
        server, flows = streaming_server(model, tiny_data)
        try:
            first, index, _gen, _imputed = server.forecast_tick()
            server.push_tick(flows[index])
            pred, index2, _gen, _imputed = server.forecast_tick()
            sample, _imputed = server.cache.sample()
            assert server.results.snapshot()["misses"] == 2
        finally:
            server.close()
        assert index2 == index + 1 == int(sample.indices[0])
        assert pred is not first
        assert np.array_equal(pred, model.predict(sample)[0])

    def test_push_gap_invalidates(self, tiny_data):
        model = TinyForecaster(tiny_data)
        server, _flows = streaming_server(model, tiny_data)
        try:
            first, index, _gen, _imputed = server.forecast_tick()
            server.push_gap()
            pred, index2, _gen, imputed = server.forecast_tick()
            sample, _imputed = server.cache.sample()
            assert server.results.snapshot()["misses"] == 2
        finally:
            server.close()
        assert index2 == index + 1 == int(sample.indices[0])
        assert imputed["closeness"] == 1
        assert pred is not first
        assert np.array_equal(pred, model.predict(sample)[0])

    def test_hot_swap_invalidates_and_stale_generation_never_served(
            self, tiny_data, tmp_path):
        other = TinyForecaster(tiny_data, seed=9)
        path = str(tmp_path / "swap.npz")
        save_checkpoint(path, other, Adam(other.parameters(), lr=1e-3))
        server, _flows = streaming_server(TinyForecaster(tiny_data),
                                          tiny_data)
        try:
            old_pred, index, old_gen, _imputed = server.forecast_tick()
            assert old_gen == 0 and len(server.results) == 1
            server.load_checkpoint(path)
            new_pred, index2, new_gen, _imputed = server.forecast_tick()
            assert index2 == index and new_gen == 1
            # Same tick, new weights: the new generation's key misses,
            # so the cache must NOT have replayed the generation-0
            # artifact.
            assert server.results.snapshot()["misses"] == 2
            assert not np.allclose(new_pred, old_pred)
            sample, _imputed = server.cache.sample()
            assert np.array_equal(new_pred, other.predict(sample)[0])
        finally:
            server.close()

    def test_concurrent_same_tick_requests_cost_one_forward(self, tiny_data):
        model = CountingForecaster(tiny_data)
        server, _flows = streaming_server(model, tiny_data)
        try:
            clients = 12
            barrier = threading.Barrier(clients)
            results = []

            def worker():
                barrier.wait()
                results.append(server.forecast_tick())

            model.forwards = 0
            threads = [threading.Thread(target=worker)
                       for _ in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert model.forwards == 1
            first = results[0][0]
            assert all(r[0] is first for r in results)
            assert all(r[1:] == results[0][1:] for r in results)
            snap = server.results.snapshot()
            assert snap["misses"] == 1
            assert snap["hits"] + snap["coalesced"] == clients - 1
        finally:
            server.close()

    def test_memo_is_the_single_sample_forward_with_queries_queued(self):
        # A forecast that misses while single-sample queries wait in an
        # open batching window runs its own forward: the memoized grid
        # equals the batch-1 forward of its window bitwise, never a row
        # of a coalesced batch (which rounds differently).
        p = make_periodicity()
        flows = make_flows(p.min_index + 10)
        model = make_model()
        config = ServeConfig(max_batch=32, max_wait_ms=50.0)
        with ForecastServer(model, config, periodicity=p,
                            frame_shape=SHAPE) as server:
            for frame in flows[:p.min_index]:
                server.push_tick(frame)
            for frame in flows[p.min_index:]:
                sample, _imputed = server.cache.sample()
                queued = [server.submit(sample) for _ in range(3)]
                prediction, index, _gen, _imputed = server.forecast_tick()
                for future in queued:
                    future.result(timeout=10.0)
                assert index == int(sample.indices[0])
                assert np.array_equal(prediction,
                                      model.predict(sample)[0]), index
                server.push_tick(frame)

    def test_snapshot_cache_counters(self, tiny_data):
        server, _flows = streaming_server(TinyForecaster(tiny_data),
                                          tiny_data)
        try:
            server.forecast_tick()
            server.forecast_tick()
            counts = server.snapshot()["result_cache"]
        finally:
            server.close()
        assert counts["misses"] == 1
        assert counts["hits"] + counts["coalesced"] == 1

    def test_snapshot_reports_the_result_cache(self, tiny_data):
        server, _flows = streaming_server(TinyForecaster(tiny_data),
                                          tiny_data)
        try:
            server.forecast_tick()
            snap = server.snapshot()
        finally:
            server.close()
        assert snap["result_cache"]["entries"] == 1
        assert snap["result_cache"]["misses"] == 1
