"""ForecastCache: memoization, single-flight, invalidation, generations."""

import threading

import numpy as np
import pytest

from repro.optim import Adam
from repro.serve import ForecastCache, ForecastServer, ServeConfig
from repro.training import save_checkpoint

from tests.serve.conftest import TinyForecaster


class CountingForecaster(TinyForecaster):
    """TinyForecaster that counts predict() calls (batcher thread only)."""

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

    def test_invalidate_drops_completed_keeps_inflight(self):
        cache = ForecastCache()
        cache.lookup(("done", 0))
        cache.complete(("done", 0), np.zeros(2))
        _kind, inflight = cache.lookup(("pending", 0))
        assert cache.invalidate("tick") == 1
        assert len(cache) == 0
        value = cache.complete(("pending", 0), np.ones(2))
        assert inflight.result(timeout=5) is value

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
        with pytest.raises(ValueError, match="result_cache"):
            ServeConfig(result_cache=-1)


class TestServerResultCache:
    def test_hit_is_bit_identical_to_recompute(self, tiny_data):
        cached_model = TinyForecaster(tiny_data)
        server, _flows = streaming_server(cached_model, tiny_data)
        try:
            first, index, generation = server.forecast_tick()
            again, index2, _gen = server.forecast_tick()
            assert again is first and index2 == index
            assert not first.flags.writeable
        finally:
            server.close()
        # Uncached recompute on a fresh server: identical bits.
        plain, _f = streaming_server(TinyForecaster(tiny_data), tiny_data,
                                     result_cache=0)
        try:
            fresh, fresh_index, _gen = plain.forecast_tick()
            assert plain.results is None
        finally:
            plain.close()
        assert fresh_index == index
        assert np.array_equal(fresh, first)

    def test_push_tick_invalidates(self, tiny_data):
        server, flows = streaming_server(TinyForecaster(tiny_data), tiny_data)
        try:
            _pred, index, _gen = server.forecast_tick()
            assert len(server.results) == 1
            server.push_tick(flows[index])
            assert len(server.results) == 0
            _pred2, index2, _gen = server.forecast_tick()
            assert index2 == index + 1
        finally:
            server.close()

    def test_push_gap_invalidates(self, tiny_data):
        server, _flows = streaming_server(TinyForecaster(tiny_data),
                                          tiny_data)
        try:
            _pred, index, _gen = server.forecast_tick()
            assert len(server.results) == 1
            server.push_gap()
            assert len(server.results) == 0
            _pred2, index2, _gen = server.forecast_tick()
            assert index2 == index + 1
        finally:
            server.close()

    def test_hot_swap_invalidates_and_stale_generation_never_served(
            self, tiny_data, tmp_path):
        other = TinyForecaster(tiny_data, seed=9)
        path = str(tmp_path / "swap.npz")
        save_checkpoint(path, other, Adam(other.parameters(), lr=1e-3))
        server, _flows = streaming_server(TinyForecaster(tiny_data),
                                          tiny_data)
        try:
            old_pred, index, old_gen = server.forecast_tick()
            assert old_gen == 0 and len(server.results) == 1
            server.load_checkpoint(path)
            assert len(server.results) == 0  # swap dropped the memo
            new_pred, index2, new_gen = server.forecast_tick()
            assert index2 == index and new_gen == 1
            # Same tick, new weights: the cache must NOT have replayed
            # the generation-0 artifact.
            assert not np.allclose(new_pred, old_pred)
            reference = other.predict(server.cache.sample())[0]
            assert np.allclose(new_pred, reference, atol=1e-12)
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
