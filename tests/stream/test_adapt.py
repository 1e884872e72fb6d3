"""Rolling-window data preparation and adaptation config validation."""

import numpy as np
import pytest

from repro.data import MinMaxScaler, MultiPeriodicity
from repro.stream import AdaptationConfig, AdaptationError
from repro.stream.adapt import prepare_rolling_data

SHAPE = (2, 2, 2)


def make_setup(extra=24, seed=0):
    # min_index = max(2, 1*4, 1*8) = 8: small enough for fast tests.
    p = MultiPeriodicity(2, 1, 1, samples_per_day=4, trend_lag=8)
    rng = np.random.default_rng(seed)
    frames = rng.uniform(0, 10, size=(p.min_index + extra,) + SHAPE)
    scaler = MinMaxScaler((-0.9, 0.9)).fit(frames)
    return p, frames, scaler


class TestPrepareRollingData:
    def test_split_covers_every_target_once(self):
        p, frames, scaler = make_setup()
        data = prepare_rolling_data(frames, scaler, p, val_fraction=0.25)
        targets = sorted(np.concatenate([data.train.indices,
                                         data.val.indices]).tolist())
        assert targets == list(range(p.min_index, len(frames)))
        assert len(data.test) == 0

    def test_val_indices_are_stratified_not_tail_only(self):
        # After a drift the tail is where the new-regime samples live;
        # a tail-only val split would hide them all from training.
        p, frames, scaler = make_setup(extra=40)
        data = prepare_rolling_data(frames, scaler, p, val_fraction=0.25)
        val = np.sort(data.val.indices)
        span = len(frames) - p.min_index
        # Validation touches both the first and last third of the span.
        assert val[0] < p.min_index + span // 3
        assert val[-1] >= len(frames) - span // 3
        # ...and the newest target still trains (it is the regime).
        assert (len(frames) - 1) in data.train.indices or \
            (len(frames) - 1) in val

    def test_recency_boost_oversamples_newest_targets(self):
        p, frames, scaler = make_setup(extra=40)
        plain = prepare_rolling_data(frames, scaler, p)
        boosted = prepare_rolling_data(frames, scaler, p,
                                       recent_span=8, recent_boost=3)
        assert len(boosted.train) == len(plain.train) + 8 * 2
        newest = np.sort(plain.train.indices)[-8:]
        for index in newest:
            assert (boosted.train.indices == index).sum() == 3

    def test_windows_match_build_samples_on_the_scaled_frames(self):
        from repro.data import build_samples
        p, frames, scaler = make_setup()
        data = prepare_rolling_data(frames, scaler, p, val_fraction=0.25)
        ref = build_samples(scaler.transform(frames), p, data.val.indices)
        assert np.array_equal(data.val.closeness, ref.closeness)
        assert np.array_equal(data.val.target, ref.target)

    def test_short_history_raises_adaptation_error(self):
        p, frames, scaler = make_setup(extra=2)
        with pytest.raises(AdaptationError, match="too short"):
            prepare_rolling_data(frames, scaler, p)


class TestAdaptationConfig:
    def test_defaults_are_valid(self):
        AdaptationConfig()

    @pytest.mark.parametrize("kwargs,match", [
        (dict(step_budget=0), "step_budget"),
        (dict(recent_boost=0), "recent_boost"),
    ])
    def test_invalid_values_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            AdaptationConfig(**kwargs)
