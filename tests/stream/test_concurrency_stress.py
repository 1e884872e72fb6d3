"""Drift-retrain hot swap re-run under sanitizer schedule perturbation.

The base :class:`TestAdaptation` suite drives ``adapt()`` from the
main thread with nobody else in flight.  Here the same warm-retrain +
hot-swap path runs while client threads hammer ``forecast()``, inside
``sanitizer.enabled(stress=True, seed=...)`` — every instrumented lock
acquisition gets a seeded sleep in front of it, widening the
swap/serve race deterministically.  The contract: every answer comes
from a pure generation or the fallback ladder (finite values, a known
source), the swap lands exactly once per adapt, and the sanitizer's
lock-order / fork-safety / unjoined-thread detectors stay silent.
"""

import os
import threading

import numpy as np
import pytest

from repro.inspect import sanitizer

from repro.stream import AdaptationConfig, StreamConfig
from repro.stream import adapt as adapt_mod

from tests.stream.test_runtime import (
    live_tick,
    make_flows,
    make_model,
    make_runtime,
)

# Same knobs as TestAdaptation in test_runtime (not imported — pytest
# would re-collect that class here).
ADAPT_CONFIG = StreamConfig(adaptation=AdaptationConfig(step_budget=4))

pytestmark = pytest.mark.skipif(
    bool(os.environ.get("REPRO_TSAN")),
    reason="stress re-runs open their own sanitizer sessions")

_SOURCES = {"model", "historical_average", "persistence", "zeros"}


class TestDriftRetrainStressed:
    def test_hot_swap_under_forecast_fire(self, tmp_path, monkeypatch):
        monkeypatch.setattr(adapt_mod, "GATE_FACTOR", 50.0)
        flows = make_flows(40)
        with sanitizer.enabled(stress=True, seed=321,
                               max_sleep_ms=0.5) as session:
            runtime = make_runtime(
                flows[:24], config=ADAPT_CONFIG,
                model_factory=make_model,
                checkpoint_dir=str(tmp_path))
            with runtime:
                for index in range(24, 30):
                    runtime.ingest(live_tick(flows, index))

                stop = threading.Event()
                bad = []

                def client():
                    while not stop.is_set():
                        result = runtime.forecast()
                        if (result.source not in _SOURCES
                                or not np.all(np.isfinite(result.flows))):
                            bad.append(result)
                            return

                threads = [threading.Thread(target=client,
                                            name=f"stream-client-{i}")
                           for i in range(4)]
                for t in threads:
                    t.start()
                try:
                    assert runtime.adapt() is True
                    assert runtime.server.generation == 1
                    runtime.ingest(live_tick(flows, 30))
                    assert runtime.adapt() is True
                    assert runtime.server.generation == 2
                finally:
                    stop.set()
                    for t in threads:
                        t.join(timeout=30.0)
                        assert not t.is_alive()
                assert runtime.retrains == 2
        assert not bad, f"invalid forecast under swap fire: {bad[0]!r}"
        assert not session.findings, session.format_text()
        assert session.report()["acquisitions"] > 0

    def test_stress_schedule_is_deterministic_per_seed(self):
        # The perturbation that widens the race is seeded: same seed +
        # same thread name -> the same sleep draws, so a failure under
        # stress is replayable.
        def draws(seed):
            with sanitizer.enabled(stress=True, seed=seed) as session:
                out = []

                def worker():
                    rng = session._rng()
                    out.extend(rng.random() for _ in range(8))

                t = sanitizer.create_thread(target=worker,
                                            name="stream-stress",
                                            daemon=True)
                t.start()
                t.join(timeout=5.0)
            return out

        assert draws(99) == draws(99)
        assert draws(99) != draws(100)
