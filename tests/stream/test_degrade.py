"""Degradation-ladder forecaster: the streaming climatology."""

import numpy as np
import pytest

from repro.stream import StreamingHistoricalAverage

SHAPE = (2, 2, 2)


class TestHistoricalAverage:
    def test_first_observation_seeds_its_slot(self):
        avg = StreamingHistoricalAverage(4, SHAPE, beta=0.9)
        avg.update(2, np.full(SHAPE, 5.0))
        assert avg.ready(2) and avg.ready(6)  # same slot, one day later
        assert not avg.ready(0)
        assert np.array_equal(avg.predict(6), np.full(SHAPE, 5.0))

    def test_slots_track_time_of_day_independently(self):
        avg = StreamingHistoricalAverage(2, SHAPE, beta=0.5)
        avg.update(0, np.full(SHAPE, 1.0))
        avg.update(1, np.full(SHAPE, 10.0))
        avg.update(2, np.full(SHAPE, 3.0))  # slot 0 again: 0.5*1 + 0.5*3
        assert np.allclose(avg.predict(0), 2.0)
        assert np.allclose(avg.predict(1), 10.0)

    def test_predict_unseen_slot_raises(self):
        avg = StreamingHistoricalAverage(4, SHAPE)
        with pytest.raises(ValueError, match="slot"):
            avg.predict(1)

    def test_prediction_is_a_copy(self):
        avg = StreamingHistoricalAverage(2, SHAPE)
        avg.update(0, np.ones(SHAPE))
        avg.predict(0)[:] = 99.0
        assert np.array_equal(avg.predict(0), np.ones(SHAPE))

    def test_validation(self):
        with pytest.raises(ValueError, match="samples_per_day"):
            StreamingHistoricalAverage(0, SHAPE)
        with pytest.raises(ValueError, match="beta"):
            StreamingHistoricalAverage(4, SHAPE, beta=1.0)
