"""ForecastServer: equivalence, hot swap, streaming, telemetry."""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.data import build_samples
from repro.optim import Adam
from repro.serve import ForecastServer, ServeConfig
from repro.training import Trainer, save_checkpoint

from tests.serve.conftest import TinyForecaster


def offline_reference(model, batch):
    """The offline evaluation path the serving contract is pinned to."""
    return Trainer(model).predict_scaled(batch)


class TestServedEqualsOffline:
    def test_concurrent_single_sample_requests(self, tiny_model, tiny_data):
        test = tiny_data.test
        offline = offline_reference(tiny_model, test)
        config = ServeConfig(max_batch=5, max_wait_ms=5.0)
        with ForecastServer(tiny_model, config) as server:
            with ThreadPoolExecutor(max_workers=6) as clients:
                rows = list(clients.map(
                    server.forecast,
                    [test.slice(i, i + 1) for i in range(len(test))]))
        served = np.concatenate(rows, axis=0)
        assert np.allclose(served, offline, atol=1e-12)

    def test_mixed_size_interleaving(self, tiny_model, tiny_data):
        # Request sizes 1/3/2/5/2 against max_batch=4: windows coalesce,
        # split, defer, and serve one oversized request — every row must
        # still match the offline forward for its slice.
        test = tiny_data.test
        offline = offline_reference(tiny_model, test)
        spans, start = [], 0
        for size in (1, 3, 2, 5, 2):
            spans.append((start, start + size))
            start += size
        config = ServeConfig(max_batch=4, max_wait_ms=5.0)
        with ForecastServer(tiny_model, config) as server:
            with ThreadPoolExecutor(max_workers=len(spans)) as clients:
                rows = list(clients.map(
                    lambda span: server.forecast(test.slice(*span)), spans))
        for (lo, hi), got in zip(spans, rows):
            assert np.allclose(got, offline[lo:hi], atol=1e-12)


class TestHotSwap:
    def _checkpoint(self, model, path):
        save_checkpoint(str(path), model, Adam(model.parameters(), lr=1e-3))
        return str(path)

    def test_generation_bumps_exactly_once_per_install(
            self, tiny_model, tiny_data, tmp_path):
        other = TinyForecaster(tiny_data, seed=9)
        path = self._checkpoint(other, tmp_path / "swap.npz")
        with ForecastServer(tiny_model) as server:
            assert server.generation == 0
            assert server.load_checkpoint(path) == 1
            assert server.generation == 1
            assert server.load_checkpoint(path) == 2

    def test_swap_changes_served_forecasts(self, tiny_model, tiny_data,
                                           tmp_path):
        test = tiny_data.test
        other = TinyForecaster(tiny_data, seed=9)
        expected = offline_reference(other, test)
        path = self._checkpoint(other, tmp_path / "swap.npz")
        with ForecastServer(tiny_model) as server:
            before = server.forecast(test)
            server.load_checkpoint(path)
            after = server.forecast(test)
        assert not np.allclose(before, after)
        assert np.allclose(after, expected, atol=1e-12)

    def test_no_request_observes_a_torn_state(self, tiny_model, tiny_data,
                                              tmp_path):
        # Generation-attribution under fire: while client threads hammer
        # the same sample, the main thread repeatedly swaps between two
        # checkpoints.  Every response must equal one of the two pure
        # generations exactly — a half-installed parameter state would
        # produce a third value.
        test = tiny_data.test
        model_a = TinyForecaster(tiny_data, seed=0)
        model_b = TinyForecaster(tiny_data, seed=9)
        out_a = offline_reference(model_a, test.slice(0, 1))
        out_b = offline_reference(model_b, test.slice(0, 1))
        path_a = self._checkpoint(model_a, tmp_path / "a.npz")
        path_b = self._checkpoint(model_b, tmp_path / "b.npz")

        config = ServeConfig(max_batch=4, max_wait_ms=0.5)
        with ForecastServer(tiny_model, config) as server:
            server.load_checkpoint(path_a)
            stop = threading.Event()
            torn = []

            def client():
                # Float tolerance, not bit equality: a coalesced forward
                # may round differently per batch size, but a torn
                # half-installed weight mix lands far from either pure
                # generation (the two seeds differ at O(1)).
                while not stop.is_set():
                    got = server.forecast(test.slice(0, 1))
                    if not (np.allclose(got, out_a, atol=1e-9)
                            or np.allclose(got, out_b, atol=1e-9)):
                        torn.append(got)
                        return

            threads = [threading.Thread(target=client) for _ in range(3)]
            for t in threads:
                t.start()
            for _ in range(10):
                server.load_checkpoint(path_b)
                server.load_checkpoint(path_a)
            stop.set()
            for t in threads:
                t.join(timeout=30.0)
        assert not torn, "a response matched neither checkpoint generation"


class TestStreaming:
    def test_raw_frames_match_offline_at_every_index(self, tiny_data):
        # A scaler-equipped server caches the raw frames it is pushed
        # and scales each sample when a forecast takes it.  At every
        # index that must equal scaling the whole history first, then
        # assembling and casting to the model dtype — bitwise, for
        # float64 and float32 models alike.
        p = tiny_data.periodicity
        flows = tiny_data.dataset.flows
        scaled = tiny_data.scaler.transform(flows)
        for dtype in (np.float64, np.float32):
            model = TinyForecaster(tiny_data)
            for param in model.parameters():
                param.data = param.data.astype(dtype)
            checked = 0
            with ForecastServer(model, ServeConfig(max_wait_ms=0.0),
                                scaler=tiny_data.scaler, periodicity=p,
                                frame_shape=flows.shape[1:]) as server:
                for frame in flows[:-1]:
                    index = server.push_tick(frame)
                    if index < p.min_index:
                        continue
                    prediction, got, _gen, _imputed = \
                        server.forecast_tick()
                    assert got == index
                    offline = model.predict(build_samples(
                        scaled, p, [index]).astype(dtype))[0]
                    assert prediction.dtype == dtype
                    assert np.array_equal(prediction, offline), (dtype,
                                                                 index)
                    checked += 1
            assert checked == len(flows) - p.min_index

    def test_streaming_without_periodicity_raises(self, tiny_model):
        with ForecastServer(tiny_model) as server:
            with pytest.raises(ValueError, match="periodicity"):
                server.push_tick(np.zeros((2, 2, 2)))
            with pytest.raises(ValueError, match="periodicity"):
                server.forecast_tick()


class TestLifecycleAndTelemetry:
    def test_submit_before_start_raises(self, tiny_model, tiny_data):
        server = ForecastServer(tiny_model)
        with pytest.raises(RuntimeError, match="not running"):
            server.submit(tiny_data.test.slice(0, 1))

    def test_replicas_require_template(self, tiny_model):
        with pytest.raises(ValueError, match="template"):
            ForecastServer(tiny_model, ServeConfig(replicas=1))

    def test_snapshot_shape(self, tiny_model, tiny_data):
        test = tiny_data.test
        with ForecastServer(tiny_model,
                            ServeConfig(max_batch=4, max_wait_ms=1.0)) as server:
            with ThreadPoolExecutor(max_workers=4) as clients:
                list(clients.map(server.forecast,
                                 [test.slice(i, i + 1) for i in range(8)]))
        snap = server.snapshot()  # after close(): every batch recorded
        assert snap["requests"] == snap["samples"] == 8
        assert 2 <= snap["batches"] <= 8
        assert snap["queries_per_sec"] > 0
        for key in ("p50", "p99", "max", "mean"):
            assert snap["latency_ms"][key] >= 0
        assert snap["latency_ms"]["p50"] <= snap["latency_ms"]["p99"]
        assert snap["generation"] == 0
        assert snap["max_batch"] == 4

    def test_snapshot_serve_counters(self, tiny_model, tiny_data):
        with ForecastServer(tiny_model) as server:
            server.forecast(tiny_data.test.slice(0, 3))
        # The batcher records a batch after resolving its futures, so
        # read once close() has joined it.
        counts = server.snapshot()
        assert counts["batches"] == 1
        assert counts["requests"] == 1
        assert counts["forward_s"] > 0
        wait = counts["queue_wait_ms"]
        assert 0.0 <= wait["p50"] <= wait["p99"]

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match="max_batch"):
            ServeConfig(max_batch=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            ServeConfig(max_wait_ms=-0.1)
        with pytest.raises(ValueError, match="replicas"):
            ServeConfig(replicas=-1)
