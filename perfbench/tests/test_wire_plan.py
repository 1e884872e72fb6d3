"""The wire generator's schedule and due-time accounting."""

import numpy as np
import pytest

from perfbench import workload_wire as ww


def test_schedule_is_a_function_of_the_seed():
    a, b, c = ww.Plan(7, 10, 120), ww.Plan(7, 10, 120), ww.Plan(8, 10, 120)
    assert np.array_equal(a.query_due, b.query_due)
    assert np.array_equal(a.read_due, b.read_due)
    assert not np.array_equal(a.read_due, c.read_due)
    assert a.open_s == pytest.approx(ww.OPEN_SHARE * 10)
    assert a.read_due.max() < a.open_s
    assert np.all(np.diff(a.read_due) > 0)
    assert a.query_index.max() < 120


def test_arrivals_keep_their_rate_and_half_a_slot_apart():
    due = ww.arrivals(np.random.default_rng(0), 100.0, 100.0)
    assert len(due) == 10_000
    assert due.min() >= 0 and due.max() < 100.0
    # Never two requests due within half a slot on one connection.
    assert np.diff(due).min() >= (1 - 2 * ww.JITTER) / 100.0 - 1e-12
    assert not np.allclose(np.diff(due), 0.01)  # jittered, not a metronome


def _row(due, sent, done, ok=True, flag=False):
    return (due, sent, done, ok, flag, None)


def test_latency_is_timed_from_due_and_failures_miss_the_limit():
    log = {
        # query 2 was due at 1.0 but sent 30 ms late behind query 1.
        "query": [_row(0.0, 0.0, 0.040), _row(1.0, 1.030, 1.040)],
        "read": [_row(0.0, 0.0, 0.001), _row(0.1, 0.1, 0.105, flag=True),
                 _row(0.2, 0.2, 0.2, ok=False)],
        "push": [(0.05, 0.05, 0.06, True)],
        "closed": [[(5.0, 5.0, 5.01, True), (5.01, 5.01, 5.2, True)],
                   [(5.0, 5.0, 5.02, False)]],
        "closed_spans": [(5.0, 5.2)],
    }
    # At the reference speed the open phase is as measured; the closed
    # phase ran at half that speed.
    figures = ww.summarize(log, {"open": 1.0, "closed": 0.5})
    assert figures["query_ms"] == pytest.approx([40.0, 40.0])
    assert figures["op_p50_ms"] == pytest.approx(40.0)
    assert figures["heavy_op_ms"] == pytest.approx(5.0)  # read after push
    assert figures["push_ms"] == pytest.approx([10.0])
    # Only the 10 ms reply is within the 50 ms limit; the 190 ms reply
    # and the failed one miss it.  A segment runs to its last reply.
    assert figures["within_limit"] == 1
    assert figures["op_rate_per_s"] == pytest.approx(1 / (0.2 * 0.5))
    assert figures["counts"]["read"] == (3, 2, 1)
    assert figures["counts"]["closed_query"] == (3, 2, 1)
    late = figures["lateness"]["conn1"]
    assert late["max_ms"] == pytest.approx(30.0)
    assert late["late_share"] == pytest.approx(0.5)
