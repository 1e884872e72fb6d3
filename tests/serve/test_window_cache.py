"""WindowCache: incremental assembly must be bit-identical to build_samples."""

import threading

import numpy as np
import pytest

from repro.data import MultiPeriodicity, build_samples
from repro.serve import WindowCache

FRAME_SHAPE = (2, 3, 4)


def make_stream(ticks, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, (ticks,) + FRAME_SHAPE).astype(dtype)


def make_periodicity():
    """Short lags so the stream crosses many period/trend boundaries."""
    return MultiPeriodicity(len_closeness=3, len_period=2, len_trend=2,
                            samples_per_day=8, trend_lag=24)


def push_all(cache, frames):
    for frame in frames:
        cache.push(frame)


class TestWindowCache:
    def test_bit_identical_to_build_samples_at_every_index(self):
        # Walk the whole stream: before observing tick i, the cache's
        # sample for target i must equal build_samples(flows, p, [i])
        # bit-for-bit.  min_index=48, period_lag=8, trend_lag=24, so
        # the walk crosses dozens of period boundaries and several
        # trend boundaries.
        p = make_periodicity()
        flows = make_stream(p.min_index + 60)
        cache = WindowCache(p, FRAME_SHAPE)
        checked = 0
        for i in range(len(flows)):
            assert cache.ready == (i >= p.min_index)
            if cache.ready:
                sample, imputed = cache.sample()
                ref = build_samples(flows, p, [i])
                assert np.array_equal(sample.closeness, ref.closeness)
                assert np.array_equal(sample.period, ref.period)
                assert np.array_equal(sample.trend, ref.trend)
                assert sample.indices[0] == ref.indices[0] == i
                assert imputed == {"closeness": 0, "period": 0,
                                   "trend": 0}
                checked += 1
            cache.push(flows[i])
        assert checked == 60

    def test_sample_before_warmup_raises(self):
        p = make_periodicity()
        cache = WindowCache(p, FRAME_SHAPE)
        cache.push(np.zeros(FRAME_SHAPE))
        with pytest.raises(ValueError, match="not ready"):
            cache.sample()

    def test_sample_arrays_are_copies(self):
        # A caller may hold a sample across later pushes: the arrays
        # must not alias the ring or the rolling closeness tensor.
        p = make_periodicity()
        flows = make_stream(p.min_index + 10, seed=5)
        cache = WindowCache(p, FRAME_SHAPE)
        push_all(cache, flows[:p.min_index])
        held, _imputed = cache.sample()
        ref = build_samples(flows, p, [p.min_index])
        push_all(cache, flows[p.min_index:])
        assert np.array_equal(held.closeness, ref.closeness)
        assert np.array_equal(held.period, ref.period)
        assert np.array_equal(held.trend, ref.trend)

    def test_samples_between_pushes_share_one_read_only_build(self):
        # A window never changes at one count, so every sample until
        # the next push is the same build: read-only, with a counts
        # dict of the caller's own.
        p = make_periodicity()
        flows = make_stream(p.min_index + 1, seed=7)
        cache = WindowCache(p, FRAME_SHAPE)
        push_all(cache, flows[:p.min_index])
        first, imputed = cache.sample()
        again, _imputed = cache.sample()
        assert again is first
        for array in (first.closeness, first.period, first.trend,
                      first.target, first.indices):
            assert not array.flags.writeable
        imputed["closeness"] = 99
        assert cache.sample()[1]["closeness"] == 0
        cache.push(flows[p.min_index])
        after, _imputed = cache.sample()
        assert after is not first
        assert after.indices[0] == p.min_index + 1

    def test_next_index_tracks_ticks(self):
        p = make_periodicity()
        cache = WindowCache(p, FRAME_SHAPE)
        assert cache.next_index == 0
        push_all(cache, make_stream(7))
        assert cache.next_index == cache.count == 7

    def test_dtype_and_target_placeholder(self):
        # Frames are cached as pushed: no cast to any model dtype.
        p = make_periodicity()
        flows = make_stream(p.min_index, dtype=np.float32)
        cache = WindowCache(p, FRAME_SHAPE)
        push_all(cache, flows)
        sample, _imputed = cache.sample()
        assert sample.closeness.dtype == np.float32
        assert sample.target.dtype == np.float32
        assert sample.target.shape == (1,) + FRAME_SHAPE
        assert not sample.target.any()

    def test_rejects_wrong_frame_shape(self):
        cache = WindowCache(make_periodicity(), FRAME_SHAPE)
        with pytest.raises(ValueError, match="frame shape"):
            cache.push(np.zeros((2, 4, 3)))

    def test_sample_never_sees_a_half_applied_push(self):
        # Pause a push after it has written the ring slot but before it
        # bumps the count, then sample from another thread: the sample
        # must wait for the push and hold one tick's windows, never the
        # new frame at the oldest trend lag under the previous index.
        p = make_periodicity()
        flows = make_stream(p.min_index + 2, seed=6)
        cache = WindowCache(p, FRAME_SHAPE)
        push_all(cache, flows[:p.min_index])
        paused, resume = threading.Event(), threading.Event()

        class PauseAfterLastWrite(np.ndarray):
            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                paused.set()  # the slot's imputed flag: count is next
                resume.wait(10.0)

        cache._imputed_ring = cache._imputed_ring.view(PauseAfterLastWrite)
        pusher = threading.Thread(target=cache.push,
                                  args=(flows[p.min_index],))
        pusher.start()
        assert paused.wait(10.0)
        samples = []
        sampler = threading.Thread(
            target=lambda: samples.append(cache.sample()))
        sampler.start()
        sampler.join(0.2)  # a lock-free sample completes mid-push here
        resume.set()
        pusher.join(10.0)
        sampler.join(10.0)
        assert not pusher.is_alive() and not sampler.is_alive()
        sample, _imputed = samples[0]
        ref = build_samples(flows, p, [int(sample.indices[0])])
        assert np.array_equal(sample.closeness, ref.closeness)
        assert np.array_equal(sample.period, ref.period)
        assert np.array_equal(sample.trend, ref.trend)


class TestGapContract:
    """push_gap: carry-forward fill + imputation flags (PR 8).

    The seed behavior simply never advanced the clock on a missing
    interval, silently shifting every later period/trend lag off its
    calendar alignment.  The contract now: a gap advances the clock,
    fills with the last observed frame, and flags the slot so sample()
    and snapshot()["imputed"] report how much of each sub-series is
    filled.
    """

    def _filled_reference(self, flows, gaps):
        """The history build_samples sees if gaps are carry-forward filled."""
        filled = np.array(flows, copy=True)
        for i in sorted(gaps):
            filled[i] = filled[i - 1] if i > 0 else 0.0
        return filled

    def test_gap_windows_bit_identical_across_period_and_trend(self):
        # Gaps placed so the fills traverse *every* sub-series as the
        # stream advances: each gap sits exactly one period or trend
        # lag behind some later target.  min_index=48, period_lag=8,
        # trend_lag=24.
        p = make_periodicity()
        flows = make_stream(p.min_index + 60, seed=9)
        gaps = {p.min_index + 5, p.min_index + 6, p.min_index + 30}
        filled = self._filled_reference(flows, gaps)
        cache = WindowCache(p, FRAME_SHAPE)
        for i in range(len(flows)):
            if cache.ready:
                sample, _imputed = cache.sample()
                ref = build_samples(filled, p, [i])
                assert np.array_equal(sample.closeness, ref.closeness), i
                assert np.array_equal(sample.period, ref.period), i
                assert np.array_equal(sample.trend, ref.trend), i
            if i in gaps:
                cache.push_gap()
            else:
                cache.push(flows[i])
        assert cache.gap_count == len(gaps)

    def test_gap_advances_clock_and_keeps_alignment(self):
        # The regression pinned: after a gap, next_index must advance
        # exactly like an observed tick, or every later lag shifts.
        p = make_periodicity()
        cache = WindowCache(p, FRAME_SHAPE)
        push_all(cache, make_stream(10, seed=1))
        assert cache.next_index == 10
        cache.push_gap()
        assert cache.next_index == 11
        assert cache.count == 11

    def test_imputed_counts_traverse_subseries(self):
        # One gap, then clean ticks: the imputation flag must appear in
        # closeness immediately, then surface in the period window when
        # the gap is exactly period_lag behind the target, and in the
        # trend window at trend_lag behind — and be zero elsewhere.
        p = make_periodicity()  # L_c=3, L_p=2 @ lag 8, L_t=2 @ lag 24
        flows = make_stream(p.min_index + 50, seed=2)
        cache = WindowCache(p, FRAME_SHAPE)
        push_all(cache, flows[:p.min_index])
        gap_at = p.min_index
        cache.push_gap()
        for _ in range(48):
            cache.push(flows[cache.next_index])
            _sample, counts = cache.sample()
            assert cache.snapshot()["imputed"] == counts
            lag = cache.next_index - gap_at  # gap's lag behind the target
            assert counts["closeness"] == (1 if lag <= 3 else 0), lag
            assert counts["period"] == (1 if lag in (8, 16) else 0), lag
            assert counts["trend"] == (1 if lag in (24, 48) else 0), lag

    def test_gap_before_first_observation_fills_zeros(self):
        p = make_periodicity()
        cache = WindowCache(p, FRAME_SHAPE)
        cache.push_gap()
        assert cache.count == 1
        assert np.array_equal(cache.last_frame, np.zeros(FRAME_SHAPE))

    def test_clean_stream_reports_zero_imputed(self):
        p = make_periodicity()
        cache = WindowCache(p, FRAME_SHAPE)
        push_all(cache, make_stream(p.min_index, seed=4))
        zeros = {"closeness": 0, "period": 0, "trend": 0}
        assert cache.sample()[1] == zeros
        assert cache.snapshot()["imputed"] == zeros
        assert cache.gap_count == 0

    def test_imputed_counts_before_warmup_raises(self):
        # Before warm-up there is no window to count: sample() raises
        # and the snapshot reports None.
        cache = WindowCache(make_periodicity(), FRAME_SHAPE)
        cache.push_gap()
        with pytest.raises(ValueError, match="not ready"):
            cache.sample()
        assert cache.snapshot()["imputed"] is None
