"""DriftSentinel: spike/drift separation, cold start, rearm."""

import numpy as np
import pytest

from repro.stream import DriftSentinel


def warmed(rng=None, **kwargs):
    """A sentinel fed enough healthy errors to arm its baseline."""
    kwargs.setdefault("warmup", 8)
    sentinel = DriftSentinel(**kwargs)
    rng = rng or np.random.default_rng(0)
    while not sentinel.armed:
        assert sentinel.observe(1.0 + 0.05 * rng.standard_normal()) == \
            "warmup"
    return sentinel


class TestColdStart:
    def test_warmup_classifies_nothing(self):
        sentinel = DriftSentinel(warmup=4)
        results = [sentinel.observe(e) for e in (1.0, 50.0, 1.0, 2.0)]
        assert results == ["warmup"] * 4
        assert sentinel.armed

    def test_first_error_is_the_baseline(self):
        sentinel = DriftSentinel(warmup=2)
        sentinel.observe(3.0)
        assert sentinel.baseline_mean == 3.0

    def test_zero_variance_baseline_does_not_divide_by_zero(self):
        sentinel = DriftSentinel(warmup=2)
        sentinel.observe(1.0)
        sentinel.observe(1.0)  # identical: variance stays 0
        assert sentinel.observe(1.0) in ("ok", "spike")  # no crash

    def test_warmup_bound_validated(self):
        with pytest.raises(ValueError, match="warmup"):
            DriftSentinel(warmup=1)


class TestSpikeVsDrift:
    def test_steady_errors_stay_ok(self):
        sentinel = warmed()
        rng = np.random.default_rng(1)
        for _ in range(200):
            assert sentinel.observe(
                1.0 + 0.05 * rng.standard_normal()) == "ok"
        assert sentinel.drifts == 0

    def test_single_spike_does_not_confirm_drift(self):
        sentinel = warmed(threshold=8.0, increment_cap=3.0)
        assert sentinel.observe(100.0) == "spike"
        # The accumulator moved by at most increment_cap — not enough.
        assert sentinel.cusum <= sentinel.increment_cap
        # ...and the baseline was not dragged up by the outlier.
        assert sentinel.baseline_mean < 2.0
        rng = np.random.default_rng(2)
        for _ in range(20):
            assert sentinel.observe(
                1.0 + 0.05 * rng.standard_normal()) == "ok"

    def test_run_of_spikes_confirms_drift(self):
        # A hard regime change looks like spikes forever; the capped
        # increments must still accumulate to the threshold.
        sentinel = warmed(threshold=8.0, increment_cap=3.0)
        states = [sentinel.observe(100.0) for _ in range(3)]
        assert states[:2] == ["spike", "spike"]
        assert states[2] == "drift"
        assert sentinel.drifts == 1

    def test_sustained_moderate_shift_confirms_drift(self):
        # A shift below spike_z sigma accumulates through the normal
        # CUSUM path.
        sentinel = warmed(threshold=8.0, slack=0.5, spike_z=6.0)
        state = "ok"
        for _ in range(100):
            state = sentinel.observe(1.5)
            if state == "drift":
                break
        assert state == "drift"

    def test_nonfinite_error_is_spike_and_keeps_baseline(self):
        sentinel = warmed()
        before = sentinel.baseline_mean
        assert sentinel.observe(float("nan")) == "spike"
        assert sentinel.observe(float("inf")) == "spike"
        assert sentinel.baseline_mean == before

    def test_healthy_errors_drain_the_accumulator(self):
        sentinel = warmed(threshold=8.0)
        sentinel.observe(100.0)
        assert sentinel.cusum > 0
        for _ in range(30):
            sentinel.observe(1.0)
        assert sentinel.cusum == 0.0


class TestRearm:
    def test_rearm_resets_accumulator_and_reenters_warmup(self):
        sentinel = warmed(threshold=8.0)
        for _ in range(3):
            sentinel.observe(100.0)
        assert sentinel.cusum > 0
        sentinel.rearm()
        assert sentinel.cusum == 0.0
        assert not sentinel.armed
        # The new error scale seeds a fresh baseline: a level that
        # would have been a permanent spike is the new normal.
        for _ in range(sentinel.warmup):
            assert sentinel.observe(50.0) == "warmup"
        assert sentinel.observe(50.0) == "ok"

    def test_rearm_keeps_lifetime_counters(self):
        # The runtime rearms after every confirmed drift and reads the
        # total from snapshot()["drifts"], so rearm must keep it.
        sentinel = warmed(threshold=8.0, increment_cap=3.0)
        assert [sentinel.observe(100.0) for _ in range(3)][-1] == "drift"
        spikes = sentinel.spikes
        sentinel.rearm()
        assert sentinel.spikes == spikes
        assert sentinel.drifts == 1

    def test_recent_window_is_bounded_and_cleared(self):
        sentinel = warmed(window=16)
        for i in range(100):
            sentinel.observe(1.0)
        assert len(sentinel.recent) == 16
        sentinel.rearm()
        assert len(sentinel.recent) == 0


class TestReport:
    def test_report_is_json_able_and_complete(self):
        import json
        sentinel = warmed()
        sentinel.observe(1.2)
        report = sentinel.snapshot()
        json.dumps(report)
        for key in ("armed", "ema_mean", "ema_std", "cusum", "threshold",
                    "drifts", "spikes", "recent_mean", "recent_max",
                    "recent_count"):
            assert key in report

    def test_empty_report_before_any_observation(self):
        report = DriftSentinel().snapshot()
        assert report["recent_count"] == 0
        assert report["recent_mean"] is None
