"""Tape-free compiled forwards: equality, arena packing, serving."""

import tracemalloc

import numpy as np
import pytest

from repro.compile import ForwardCompiler
from repro.tensor import AnomalyError, Tensor, detect_anomaly, no_grad
from repro.tensor import tensor as _core

from tests.compile.conftest import make_muse


def eager_predict(model, batch):
    with no_grad():
        return np.asarray(model.predict(batch))


class MisrecordedTanh:
    """``predict`` computes tanh, but the kernel it records computes sin."""

    def modules(self):
        return []

    def predict(self, batch):
        x = Tensor(batch.closeness)
        out = Tensor._from_op(np.tanh(x.data), (x,), None, name="tanh")
        recorder = _core._THREAD.hooks.recorder
        if recorder is not None:
            recorder.ufunc(np.sin, (x.data,), out.data)
        return out.data


@pytest.fixture
def muse(tiny_data, muse_config):
    model = make_muse(muse_config)
    model.eval()
    return model


class TestForwardCompiler:
    def test_bitwise_equality_across_batches(self, tiny_data, muse):
        fc = ForwardCompiler(muse)
        test = tiny_data.test
        for start in range(0, 6):
            batch = test.slice(start, start + 4)
            got = fc.forward(batch)
            np.testing.assert_array_equal(got, eager_predict(muse, batch))
        report = fc.snapshot()
        assert report["plans_built"] == 1
        assert report["build_s"] > 0.0
        assert report["plans_validated"] == 1
        assert report["compiled_forwards"] >= 4
        assert report["fallbacks"] == {}

    def test_build_gate_rejects_a_diverging_replay(self, tiny_data):
        model = MisrecordedTanh()
        fc = ForwardCompiler(model)
        batch = tiny_data.test.slice(0, 4)
        first = fc.forward(batch)
        np.testing.assert_array_equal(first, eager_predict(model, batch))
        report = fc.snapshot()
        assert report["plans_built"] == 0
        assert report["build_s"] == 0.0
        [reason] = report["fallbacks"].values()
        assert reason.startswith("build validation failed")

    def test_detect_anomaly_runs_eager(self, tiny_data, muse):
        test = tiny_data.test
        fc = ForwardCompiler(muse)
        for start in range(3):  # build + shadow + first trusted replay
            fc.forward(test.slice(start, start + 4))
        assert fc.snapshot()["plans_validated"] == 1
        poisoned = test.take(range(3, 7))
        poisoned.closeness[0, 0, 0, 0] = np.nan
        with detect_anomaly():
            with pytest.raises(AnomalyError):
                eager_predict(muse, poisoned)
            with pytest.raises(AnomalyError):
                fc.forward(poisoned)
        assert "detect_anomaly" in fc.snapshot()["fallbacks"]

    def test_caller_batch_views_stay_intact(self, tiny_data, muse):
        """Replaying through zero-copy slices must not write the split.

        Regression: the plan's pinned inputs once aliased the recorded
        batch's arrays — when those were views of the test split, every
        replay overwrote the dataset in place.
        """
        test = tiny_data.test
        before = (test.closeness.copy(), test.period.copy(),
                  test.trend.copy(), test.target.copy())
        fc = ForwardCompiler(muse)
        for start in range(0, 6):
            fc.forward(test.slice(start, start + 4))
        after = (test.closeness, test.period, test.trend, test.target)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)

    def test_replay_returns_independent_copy(self, tiny_data, muse):
        fc = ForwardCompiler(muse)
        test = tiny_data.test
        first = fc.forward(test.slice(0, 4))
        kept = first.copy()
        for start in range(1, 5):
            fc.forward(test.slice(start, start + 4))
        np.testing.assert_array_equal(first, kept)

    def test_arena_reuses_bytes(self, tiny_data, muse):
        fc = ForwardCompiler(muse)
        batch = tiny_data.test.slice(0, 4)
        for _ in range(3):
            fc.forward(batch)
        report = fc.snapshot()
        assert report["arena_bytes"] > 0
        assert report["arena_reuse_pct"] > 0.0

    def test_trusted_replay_allocates_no_buffers(self, tiny_data, muse):
        fc = ForwardCompiler(muse)
        batch = tiny_data.test.slice(0, 4)
        for _ in range(3):  # build + shadow + first trusted replay
            fc.forward(batch)

        def peak_bytes(call):
            # Bytes allocated during the call above what was held before
            # it: the peak, not the net, since intermediates are freed
            # by the time the call returns.
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            result = call()
            return result, tracemalloc.get_traced_memory()[1] - held

        tracemalloc.start()
        try:
            compiled, compiled_bytes = peak_bytes(lambda: fc.forward(batch))
            eager, eager_bytes = peak_bytes(lambda: eager_predict(muse, batch))
        finally:
            tracemalloc.stop()

        np.testing.assert_array_equal(compiled, eager)
        # The replay allocates only the returned copy (plus trace noise);
        # the eager forward rebuilds every intermediate buffer.
        assert compiled_bytes < compiled.nbytes + 64 * 1024
        assert eager_bytes > 4 * compiled.nbytes


class TestServingIntegration:
    def test_serve_config_rejects_compile_with_replicas(self):
        from repro.serve import ServeConfig

        with pytest.raises(ValueError, match="replicas"):
            ServeConfig(replicas=1, compile=True)

    def test_server_compiled_matches_eager(self, tiny_data, muse_config):
        from concurrent.futures import ThreadPoolExecutor

        from repro.serve import ForecastServer, ServeConfig

        test = tiny_data.test
        queries = [test.slice(i % len(test), i % len(test) + 1)
                   for i in range(24)]

        def serve(compile_flag):
            model = make_muse(muse_config)
            config = ServeConfig(max_batch=4, max_wait_ms=1.0,
                                 compile=compile_flag)
            with ForecastServer(model, config, template=test) as server:
                with ThreadPoolExecutor(max_workers=4) as clients:
                    rows = list(clients.map(server.forecast, queries))
                snap = server.snapshot()
            return np.concatenate(rows, axis=0), snap

        eager_rows, _ = serve(False)
        compiled_rows, snap = serve(True)
        # Row values are batching-composition-dependent only through
        # BLAS blocking; compiled and eager runs may coalesce
        # differently, so compare against per-query eager forwards.
        model = make_muse(muse_config)
        model.eval()
        reference = np.concatenate(
            [eager_predict(model, q) for q in queries], axis=0)
        assert np.allclose(compiled_rows, reference, atol=1e-12)
        assert np.allclose(eager_rows, reference, atol=1e-12)
        assert "compile" in snap
        assert snap["compile"]["plans_built"] >= 1

    def test_hot_swap_flows_through_compiled_plan(self, tiny_data,
                                                  muse_config):
        import tempfile

        from repro.optim import Adam
        from repro.serve import ForecastServer, ServeConfig
        from repro.training.checkpoint import (CheckpointManager,
                                               find_latest_checkpoint)

        trained = make_muse(muse_config)
        rng = np.random.default_rng(0)
        optimizer = Adam(trained.parameters(), lr=1e-3)
        batch = tiny_data.train.take(range(8))
        for _ in range(2):
            optimizer.zero_grad()
            breakdown, _ = trained.training_loss(batch, rng=rng)
            breakdown.total.backward()
            optimizer.step()
        trained.eval()

        test = tiny_data.test
        query = test.slice(0, 4)
        with tempfile.TemporaryDirectory() as tmp:
            CheckpointManager(tmp, keep_last=1).save(trained, optimizer,
                                                     epoch=0)
            ckpt = find_latest_checkpoint(tmp)
            fresh = make_muse(muse_config)
            config = ServeConfig(max_batch=4, compile=True)
            with ForecastServer(fresh, config, template=test) as server:
                for _ in range(3):  # build + shadow + trusted replay
                    before = server.forecast(query)
                server.load_checkpoint(ckpt)
                after = server.forecast(query)
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, eager_predict(trained, query))
