"""Percentile/sample-count rule and due-time lateness accounting."""

import numpy as np
import pytest

from perfbench import stats


def test_percentile_needs_ten_samples_beyond():
    values = np.arange(1, 1001, dtype=float)  # 1..1000
    value, n, beyond = stats.percentile(values, 99)
    assert n == 1000
    assert beyond == 10
    assert value == pytest.approx(990.01)
    # 900 samples leave only 9 above the p99.
    assert stats.percentile(values[:900], 99) is None


def test_percentile_p50_withheld_below_twenty_samples():
    assert stats.percentile(np.arange(19.0), 50) is None
    assert stats.percentile(np.arange(21.0), 50)[1] == 21


def test_ties_do_not_count_as_beyond():
    # Every sample equal: nothing lies strictly beyond any percentile.
    assert stats.percentile(np.ones(5000), 50) is None


def test_highest_percentile_falls_back_to_what_the_sample_supports():
    values = np.arange(200.0)
    q, _value, n = stats.highest_percentile(values)
    assert (q, n) == (95, 200)
    assert stats.highest_percentile(np.arange(5.0)) is None


def test_lateness_is_sent_minus_due():
    due = [0.0, 0.010, 0.020, 0.030]
    sent = [0.0001, 0.0101, 0.025, 0.0302]  # third request 5 ms late
    late = stats.lateness(due, sent)
    assert late["n"] == 4
    assert late["max_ms"] == pytest.approx(5.0)
    assert late["late_share"] == pytest.approx(0.25)
    assert late["p50_ms"] == pytest.approx(0.15)


def test_lateness_of_an_empty_schedule():
    assert stats.lateness([], [])["n"] == 0


def test_steal_share_is_stolen_over_wanted_time():
    # 90 busy and 10 stolen ticks between the readings: 10% stolen.
    assert stats.steal_share((100, 10), (190, 20)) == pytest.approx(0.1)
    assert stats.steal_share((5, 5), (5, 5)) == 0.0
    busy, steal = stats.cpu_times()
    assert busy > 0 and steal >= 0
