"""Serving races re-run under sanitizer schedule perturbation.

The base suites already assert the *functional* contracts (no torn
generation, no stranded future, clean close).  These re-runs wrap the
same scenarios in ``sanitizer.enabled(stress=True, seed=...)`` at
elevated concurrency: every lock acquisition gets a seeded random
sleep injected in front of it, which widens the race windows by orders
of magnitude while keeping the schedule deterministic per seed.  Each
test asserts the functional contract *and* that the sanitizer's own
detectors (lock-order, fork-safety, long-hold, unjoined-thread) stayed
silent under the perturbed schedule.
"""

import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.data import build_samples
from repro.inspect import sanitizer
from repro.optim import Adam
from repro.serve import ForecastServer, ReplicaPool, ServeConfig
from repro.serve.batcher import MicroBatcher
from repro.tensor import no_grad
from repro.training import Trainer, save_checkpoint

from tests.serve.conftest import TinyForecaster

# These tests open their own sanitizer sessions, which the process-wide
# REPRO_TSAN env session would reject as nested.
pytestmark = pytest.mark.skipif(
    bool(os.environ.get("REPRO_TSAN")),
    reason="stress re-runs open their own sanitizer sessions")


def offline_reference(model, batch):
    return Trainer(model).predict_scaled(batch)


def _checkpoint(model, path):
    save_checkpoint(str(path), model, Adam(model.parameters(), lr=1e-3))
    return str(path)


class TestSwapUnderFireStressed:
    def test_hot_swap_under_perturbed_schedule(self, tiny_data, tmp_path):
        # The TestHotSwap torn-state test at elevated concurrency (6
        # clients vs 3) with stress sleeps in front of every lock
        # acquisition — the server is built *inside* the session so its
        # locks and consumer thread are the instrumented kind.
        test = tiny_data.test
        model = TinyForecaster(tiny_data, seed=0)
        model_a = TinyForecaster(tiny_data, seed=0)
        model_b = TinyForecaster(tiny_data, seed=9)
        out_a = offline_reference(model_a, test.slice(0, 1))
        out_b = offline_reference(model_b, test.slice(0, 1))
        path_a = _checkpoint(model_a, tmp_path / "a.npz")
        path_b = _checkpoint(model_b, tmp_path / "b.npz")

        with sanitizer.enabled(stress=True, seed=1234,
                               max_sleep_ms=0.5) as session:
            config = ServeConfig(max_batch=4, max_wait_ms=0.5)
            with ForecastServer(model, config) as server:
                server.load_checkpoint(path_a)
                stop = threading.Event()
                torn = []

                def client():
                    while not stop.is_set():
                        got = server.forecast(test.slice(0, 1))
                        if not (np.allclose(got, out_a, atol=1e-9)
                                or np.allclose(got, out_b, atol=1e-9)):
                            torn.append(got)
                            return

                threads = [threading.Thread(target=client,
                                            name=f"stress-client-{i}")
                           for i in range(6)]
                for t in threads:
                    t.start()
                for _ in range(8):
                    server.load_checkpoint(path_b)
                    server.load_checkpoint(path_a)
                stop.set()
                for t in threads:
                    t.join(timeout=30.0)
                    assert not t.is_alive()
        assert not torn, "a response matched neither checkpoint generation"
        assert not session.findings, session.format_text()
        # The perturbation actually exercised the instrumented locks.
        assert session.report()["acquisitions"] > 0


class TestBatcherCloseStressed:
    def test_submit_racing_close_under_perturbed_schedule(self, tiny_data):
        # The shutdown-audit contract under stress: with sleeps injected
        # before every lock acquisition the submit/close race window is
        # wide open, and still every accepted future must resolve and
        # every rejected submit must raise cleanly.
        test = tiny_data.test

        def forward(batch):
            return np.zeros((len(batch), 1))

        for seed in (11, 22):
            with sanitizer.enabled(stress=True, seed=seed,
                                   max_sleep_ms=0.5) as session:
                batcher = MicroBatcher(forward, max_batch=4, max_wait_ms=0.2)
                barrier = threading.Barrier(4)
                futures, errors = [], []
                futures_lock = threading.Lock()

                def submitter():
                    barrier.wait(timeout=10.0)
                    for _ in range(8):
                        try:
                            f = batcher.submit(test.slice(0, 1))
                        except RuntimeError as exc:
                            errors.append(exc)
                        else:
                            with futures_lock:
                                futures.append(f)

                def closer():
                    barrier.wait(timeout=10.0)
                    batcher.close()

                threads = [threading.Thread(target=submitter,
                                            name=f"submit-{i}")
                           for i in range(3)]
                threads.append(threading.Thread(target=closer, name="close"))
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30.0)
                    assert not t.is_alive()
                batcher.close()
                for f in futures:
                    exc = f.exception(timeout=10.0)
                    assert exc is None or isinstance(exc, RuntimeError)
                assert all("closed" in str(e) for e in errors)
            assert not session.findings, session.format_text()


class TestSingleFlightStressed:
    def test_single_flight_under_perturbed_schedule(self, tiny_data):
        # The result cache's exactly-one-forward contract with stress
        # sleeps in front of every lock acquisition: the owner/join
        # decision is atomic under the cache lock, so even a maximally
        # perturbed schedule must produce ONE model forward and hand
        # every concurrent caller the same frozen artifact.
        flows = tiny_data.scaler.transform(tiny_data.dataset.flows)
        model = TinyForecaster(tiny_data)
        forwards = []
        real_predict = model.predict
        model.predict = lambda batch: (forwards.append(1),
                                       real_predict(batch))[1]

        with sanitizer.enabled(stress=True, seed=77,
                               max_sleep_ms=0.5) as session:
            config = ServeConfig(max_wait_ms=0.5)
            server = ForecastServer(
                model, config, periodicity=tiny_data.periodicity,
                frame_shape=flows.shape[1:])
            server.start()
            try:
                for frame in flows[:tiny_data.periodicity.min_index]:
                    server.cache.push(frame)
                clients = 8
                barrier = threading.Barrier(clients)
                results = []
                results_lock = threading.Lock()

                def client():
                    barrier.wait(timeout=10.0)
                    got = server.forecast_tick()
                    with results_lock:
                        results.append(got)

                forwards.clear()
                threads = [threading.Thread(target=client,
                                            name=f"flight-{i}")
                           for i in range(clients)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30.0)
                    assert not t.is_alive()
            finally:
                server.close()
        assert len(forwards) == 1, "single-flight dedup failed under stress"
        first = results[0][0]
        assert all(r[0] is first for r in results)
        assert all(r[1:] == results[0][1:] for r in results)
        assert not session.findings, session.format_text()
        assert session.report()["acquisitions"] > 0

    def test_forecast_racing_ticks_never_serves_a_torn_artifact(
            self, tiny_data):
        # Pushes advance the window while clients forecast: every
        # response must be the batch-1 forward FOR ITS OWN index,
        # bitwise (the key comes from the window the request sampled)
        # — never a stale index's rows under a new key.
        p = tiny_data.periodicity
        flows = tiny_data.scaler.transform(tiny_data.dataset.flows)
        model = TinyForecaster(tiny_data)

        with sanitizer.enabled(stress=True, seed=4242,
                               max_sleep_ms=0.5) as session:
            server = ForecastServer(
                model, ServeConfig(max_wait_ms=0.5), periodicity=p,
                frame_shape=flows.shape[1:])
            server.start()
            try:
                for frame in flows[:p.min_index]:
                    server.cache.push(frame)
                stop = threading.Event()
                outcomes = []
                outcomes_lock = threading.Lock()

                def client():
                    while not stop.is_set():
                        try:
                            got = server.forecast_tick()
                        except Exception as exc:  # recorded, then failed
                            got = exc
                        with outcomes_lock:
                            outcomes.append(got)

                threads = [threading.Thread(target=client,
                                            name=f"racer-{i}")
                           for i in range(4)]
                for t in threads:
                    t.start()
                last = min(p.min_index + 6, len(flows))
                for frame in flows[p.min_index:last]:
                    server.push_tick(frame)
                stop.set()
                for t in threads:
                    t.join(timeout=30.0)
                    assert not t.is_alive()
            finally:
                server.close()
        assert outcomes
        for got in outcomes:
            assert not isinstance(got, Exception), got
            pred, index, _gen, _imputed = got
            reference = model.predict(build_samples(flows, p, [index]))
            assert np.array_equal(pred, reference[0]), \
                f"tick {index} served rows from another tick"
        assert not session.findings, session.format_text()


class TestPoolCloseStressed:
    def test_close_during_predict_fails_cleanly(self, tiny_data):
        # Concurrent predicts racing close() must either complete or
        # raise the pool's own RuntimeError — never a pipe/OS error from
        # half-closed connections, which is what the unlocked seed
        # teardown could produce.
        test = tiny_data.test
        model = TinyForecaster(tiny_data, seed=0)
        with sanitizer.enabled(stress=True, seed=7,
                               max_sleep_ms=0.5) as session:
            pool = ReplicaPool(model, test, replicas=2, max_batch=8).start()
            barrier = threading.Barrier(4)
            outcomes = []
            outcomes_lock = threading.Lock()

            def client():
                barrier.wait(timeout=10.0)
                for _ in range(6):
                    try:
                        rows, _ = pool.predict(test.slice(0, 4))
                    except RuntimeError as exc:
                        with outcomes_lock:
                            outcomes.append(("closed", str(exc)))
                    else:
                        with outcomes_lock:
                            outcomes.append(("ok", rows))

            def closer():
                barrier.wait(timeout=10.0)
                pool.close()

            threads = [threading.Thread(target=client, name=f"client-{i}")
                       for i in range(3)]
            threads.append(threading.Thread(target=closer, name="closer"))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive()
            pool.close()
        with no_grad():
            expected = np.asarray(
                TinyForecaster(tiny_data, seed=0).predict(test.slice(0, 4)))
        for kind, payload in outcomes:
            if kind == "ok":
                assert np.allclose(payload, expected, atol=1e-9)
            else:
                assert "not running" in payload
        assert not session.findings, session.format_text()


class TestPoolScaleStressed:
    def test_predicts_racing_scale_to_stay_exact(self, tiny_data):
        # Replicas join and leave only between rounds, so every chunk is
        # sharded over one layout: whatever the interleaving with
        # scale_to, each answer equals the offline forward.
        test = tiny_data.test
        model = TinyForecaster(tiny_data, seed=0)
        with no_grad():
            expected = np.asarray(
                TinyForecaster(tiny_data, seed=0).predict(test))
        results, errors = [], []
        results_lock = threading.Lock()
        with sanitizer.enabled(stress=True, seed=11,
                               max_sleep_ms=0.5) as session:
            with ReplicaPool(model, test, replicas=1, max_batch=8) as pool:
                barrier = threading.Barrier(4)

                def client():
                    barrier.wait(timeout=10.0)
                    for _ in range(6):
                        try:
                            rows, _ = pool.predict(test)
                        except Exception as exc:  # reported below
                            errors.append(repr(exc))
                        else:
                            with results_lock:
                                results.append(rows)

                def scaler():
                    barrier.wait(timeout=10.0)
                    for size in (3, 1, 2, 1, 3):
                        assert pool.scale_to(size) == size

                threads = [threading.Thread(target=client, name=f"client-{i}")
                           for i in range(3)]
                threads.append(threading.Thread(target=scaler, name="scaler"))
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                    assert not t.is_alive()
                assert pool.size == 3
        assert errors == []
        assert len(results) == 18
        for rows in results:
            np.testing.assert_allclose(rows, expected, atol=1e-12, rtol=0)
        assert multiprocessing.active_children() == []
        assert not session.findings, session.format_text()
