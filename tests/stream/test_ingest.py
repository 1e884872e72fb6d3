"""StreamIngestor: watermark reordering, gap declaration, quarantine."""

import numpy as np
import pytest

from repro.stream import StreamIngestor, Tick

SHAPE = (2, 2, 2)


def frame(value):
    return np.full(SHAPE, float(value))


def tick(index, value=None):
    return Tick(index=index, frame=frame(index if value is None else value))


def indices(events):
    return [(kind, i) for kind, i, _ in events]


class TestOrdering:
    def test_in_order_stream_emits_immediately(self):
        ing = StreamIngestor(SHAPE, watermark=4)
        for i in range(5):
            events = ing.offer(tick(i))
            assert indices(events) == [("tick", i)]
        assert ing.counts == {"emitted": 5, "gaps": 0, "quarantined": 0,
                              "reordered": 0}

    def test_out_of_order_within_watermark_is_reordered(self):
        ing = StreamIngestor(SHAPE, watermark=4)
        assert ing.offer(tick(1)) == []          # parked
        events = ing.offer(tick(0))              # releases both, in order
        assert indices(events) == [("tick", 0), ("tick", 1)]
        assert ing.counts["reordered"] == 1
        # The emitted frames are the right ones for each index.
        assert np.array_equal(events[0][2], frame(0))
        assert np.array_equal(events[1][2], frame(1))

    def test_gap_declared_at_watermark(self):
        # Index 0 never arrives; the arrival of index `watermark`
        # forces the hole to be declared so the stream can advance.
        ing = StreamIngestor(SHAPE, watermark=3)
        assert ing.offer(tick(1)) == []
        assert ing.offer(tick(2)) == []
        events = ing.offer(tick(3))
        assert indices(events) == [("gap", 0), ("tick", 1), ("tick", 2),
                                   ("tick", 3)]
        assert ing.counts["gaps"] == 1

    def test_pending_buffer_stays_below_watermark(self):
        ing = StreamIngestor(SHAPE, watermark=4)
        for i in (1, 2, 3, 4, 7, 9):
            ing.offer(tick(i))
            assert ing.pending_count < ing.watermark

    def test_flush_drains_pending_and_declares_interior_gaps(self):
        ing = StreamIngestor(SHAPE, watermark=10)
        ing.offer(tick(0))
        ing.offer(tick(2))          # parked: 1 is missing
        events = ing.flush()
        assert indices(events) == [("gap", 1), ("tick", 2)]
        assert ing.pending_count == 0

    def test_strictly_in_order_watermark_one(self):
        ing = StreamIngestor(SHAPE, watermark=1)
        events = ing.offer(tick(1))  # 0 missing -> gap immediately
        assert indices(events) == [("gap", 0), ("tick", 1)]

    def test_start_index_offsets_the_clock(self):
        ing = StreamIngestor(SHAPE, watermark=2, start_index=100)
        assert ing.next_index == 100
        assert indices(ing.offer(tick(100))) == [("tick", 100)]
        rec = ing.offer(tick(50))
        assert rec == [] and ing.quarantine[-1].reason == "late"


class TestQuarantine:
    def _refused(self, ing, t, reason):
        assert ing.offer(t) == []
        assert ing.quarantine[-1].reason == reason

    def test_late_tick(self):
        ing = StreamIngestor(SHAPE, watermark=2)
        ing.offer(tick(0))
        self._refused(ing, tick(0), "late")

    def test_duplicate_pending_tick(self):
        ing = StreamIngestor(SHAPE, watermark=4)
        ing.offer(tick(2))
        self._refused(ing, tick(2), "duplicate")

    def test_bad_shape(self):
        ing = StreamIngestor(SHAPE, watermark=2)
        self._refused(ing, Tick(index=0, frame=np.zeros((2, 3, 2))),
                      "bad_shape")

    def test_inf_cells_are_corrupt(self):
        bad = frame(1.0)
        bad[0, 0, 0] = np.inf
        ing = StreamIngestor(SHAPE, watermark=2)
        self._refused(ing, Tick(index=0, frame=bad), "corrupt")

    def test_all_nan_frame_is_corrupt(self):
        ing = StreamIngestor(SHAPE, watermark=2)
        self._refused(ing, Tick(index=0, frame=np.full(SHAPE, np.nan)),
                      "corrupt")

    def test_negative_flow_is_corrupt(self):
        bad = frame(1.0)
        bad[1, 0, 1] = -3.0
        ing = StreamIngestor(SHAPE, watermark=2)
        self._refused(ing, Tick(index=0, frame=bad), "corrupt")

    def test_negative_index(self):
        ing = StreamIngestor(SHAPE, watermark=2)
        self._refused(ing, tick(-1, value=0.0), "bad_index")

    def test_partial_nan_passes_through(self):
        # NaN cells are sensor dropout, not corruption: the frame is
        # usable and the runtime masks the cells.
        partial = frame(2.0)
        partial[0, 1, 1] = np.nan
        ing = StreamIngestor(SHAPE, watermark=2)
        events = ing.offer(Tick(index=0, frame=partial))
        assert indices(events) == [("tick", 0)]
        assert np.isnan(events[0][2][0, 1, 1])

    def test_quarantine_log_is_bounded(self):
        from repro.stream.ingest import _MAX_QUARANTINE_RECORDS
        ing = StreamIngestor(SHAPE, watermark=2)
        ing.offer(tick(0))
        for _ in range(_MAX_QUARANTINE_RECORDS + 50):
            ing.offer(tick(0))  # all late
        assert len(ing.quarantine) == _MAX_QUARANTINE_RECORDS
        assert ing.counts["quarantined"] == _MAX_QUARANTINE_RECORDS + 50

    def test_quarantined_tick_never_reaches_the_stream(self):
        ing = StreamIngestor(SHAPE, watermark=2)
        ing.offer(Tick(index=0, frame=np.full(SHAPE, np.inf)))
        events = ing.offer(tick(0, value=5.0))  # a clean resend works
        assert indices(events) == [("tick", 0)]
        assert np.array_equal(events[0][2], frame(5.0))


class TestTelemetry:
    def test_counters_and_audit_log(self):
        ing = StreamIngestor(SHAPE, watermark=3)
        ing.offer(tick(1))
        ing.offer(tick(0))
        ing.offer(tick(0))  # late
        t = ing.snapshot()
        assert t["next_index"] == 2
        assert t["counts"] == {"emitted": 2, "gaps": 0, "quarantined": 1,
                               "reordered": 1}
        assert t["quarantine"][0]["reason"] == "late"

    def test_invalid_watermark_rejected(self):
        with pytest.raises(ValueError, match="watermark"):
            StreamIngestor(SHAPE, watermark=0)
