"""LatencyStats: bounded reservoirs, exact aggregates, stable keys."""

import numpy as np

from repro.serve.stats import _RECENT_WINDOW, LatencyStats, _Reservoir


def feed(stats, waits, latencies, batch_requests=None):
    """Record one batch with the given per-request times."""
    n = batch_requests if batch_requests is not None else len(latencies)
    stats.record_batch(n, n, forward_seconds=0.001,
                       queue_waits=waits, latencies=latencies)


class TestReservoir:
    def test_fills_then_stays_bounded(self):
        reservoir = _Reservoir(capacity=32, seed=0)
        for i in range(10_000):
            reservoir.add(float(i))
        assert len(reservoir.values) == 32
        assert reservoir.seen == 10_000
        # Replacement kept samples from across the stream, not just the
        # prefix that filled the reservoir.
        assert max(reservoir.values) >= 32

    def test_identical_streams_yield_identical_reservoirs(self):
        a = _Reservoir(capacity=16, seed=7)
        b = _Reservoir(capacity=16, seed=7)
        for i in range(5_000):
            a.add(float(i))
            b.add(float(i))
        assert a.values == b.values

    def test_short_stream_is_kept_verbatim(self):
        reservoir = _Reservoir(capacity=100, seed=0)
        for i in range(10):
            reservoir.add(float(i))
        assert reservoir.values == [float(i) for i in range(10)]


class TestLatencyStats:
    def test_empty_snapshot_shape(self):
        snap = LatencyStats().snapshot()
        assert snap["requests"] == 0
        assert snap["latency_ms"] is None
        assert snap["queue_wait_ms"] is None
        assert snap["batch_size"] is None

    def test_snapshot_keys_are_stable(self):
        stats = LatencyStats()
        feed(stats, [0.001, 0.002], [0.005, 0.006])
        snap = stats.snapshot()
        assert set(snap) == {"requests", "samples", "batches", "elapsed_s",
                             "queries_per_sec", "latency_ms",
                             "queue_wait_ms", "batch_size", "forward_s"}
        assert set(snap["latency_ms"]) == {"p50", "p99", "max", "mean"}
        assert set(snap["queue_wait_ms"]) == {"p50", "p99"}
        assert set(snap["batch_size"]) == {"mean", "max"}

    def test_aggregates_are_exact_even_past_reservoir_capacity(self):
        stats = LatencyStats(reservoir_capacity=8, seed=0)
        rng = np.random.default_rng(1)
        latencies = rng.uniform(1e-4, 1e-2, size=1000)
        for chunk in np.split(latencies, 50):  # 50 batches of 20
            feed(stats, list(chunk), list(chunk))
        snap = stats.snapshot()
        assert snap["requests"] == 1000
        assert snap["batches"] == 50
        assert snap["batch_size"] == {"mean": 20.0, "max": 20}
        # Mean and max never pass through the sampled reservoirs.
        assert np.isclose(snap["latency_ms"]["mean"],
                          latencies.mean() * 1e3, rtol=1e-12)
        assert np.isclose(snap["latency_ms"]["max"],
                          latencies.max() * 1e3, rtol=1e-12)
        assert np.isclose(snap["forward_s"], 0.001 * 50)

    def test_memory_is_bounded_by_the_reservoirs(self):
        stats = LatencyStats(reservoir_capacity=16, seed=0)
        for _ in range(200):
            feed(stats, [0.001] * 10, [0.002] * 10)
        assert len(stats._latencies.values) == 16
        assert len(stats._queue_waits.values) == 16
        assert len(stats._recent_waits) <= _RECENT_WINDOW

    def test_identical_runs_produce_identical_percentiles(self):
        rng = np.random.default_rng(2)
        stream = rng.uniform(1e-4, 1e-2, size=2000)
        snaps = []
        for _ in range(2):
            stats = LatencyStats(reservoir_capacity=64, seed=3)
            for chunk in np.split(stream, 100):
                feed(stats, list(chunk), list(chunk))
            snaps.append(stats.snapshot())
        assert snaps[0]["latency_ms"] == snaps[1]["latency_ms"]
        assert snaps[0]["queue_wait_ms"] == snaps[1]["queue_wait_ms"]

    def test_recent_queue_wait_tracks_the_trailing_window(self):
        stats = LatencyStats()
        assert stats.recent_queue_wait_ms() is None
        feed(stats, [0.010] * 4, [0.010] * 4)
        assert np.isclose(stats.recent_queue_wait_ms(), 10.0)
        # Flood the window with fast requests: old pressure is forgotten.
        feed(stats, [0.001] * _RECENT_WINDOW, [0.001] * _RECENT_WINDOW)
        assert np.isclose(stats.recent_queue_wait_ms(), 1.0)

    def test_reset_clock_restarts_the_qps_window(self):
        stats = LatencyStats()
        feed(stats, [0.001], [0.001])
        stats.reset_clock()
        snap = stats.snapshot()
        assert snap["elapsed_s"] < 1.0
        assert snap["queries_per_sec"] > 0.0
