"""MicroBatcher: coalescing, splitting, ordering, failure delivery."""

import threading

import numpy as np
import pytest

from repro.data import SampleBatch
from repro.serve import MicroBatcher

SHAPE = (2, 2, 2)


def make_request(values):
    """A SampleBatch whose target rows carry recognisable per-sample values."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    target = np.zeros((n,) + SHAPE)
    target += values[:, None, None, None]
    fill = np.zeros((n, 3) + SHAPE)
    return SampleBatch(closeness=fill, period=fill.copy(), trend=fill.copy(),
                       target=target, indices=np.arange(n))


def echo_forward(batch):
    """Identity on the target field: row i of the answer is sample i."""
    return batch.target.copy()


class RecordingForward:
    def __init__(self, result=echo_forward, gate=None):
        self.sizes = []
        self.entered = threading.Event()  # set once a forward has begun
        self._result = result
        self._gate = gate

    def __call__(self, batch):
        self.entered.set()
        if self._gate is not None:
            self._gate.wait(timeout=10.0)
        self.sizes.append(len(batch))
        return self._result(batch)


class TestMicroBatcher:
    def test_concurrent_requests_coalesce_into_one_forward(self):
        # Hold the forward on a gate until all requests are queued, so
        # the consumer's first window provably sees every request.
        gate = threading.Event()
        forward = RecordingForward(gate=gate)
        with MicroBatcher(forward, max_batch=8, max_wait_ms=200.0) as batcher:
            futures = [batcher.submit(make_request([i])) for i in range(4)]
            gate.set()
            results = [f.result(timeout=10.0) for f in futures]
        assert forward.sizes[0] >= 1 and sum(forward.sizes) == 4
        for i, rows in enumerate(results):
            assert rows.shape == (1,) + SHAPE
            assert np.array_equal(rows, make_request([i]).target)

    def test_rows_split_back_per_request_in_arrival_order(self):
        gate = threading.Event()
        forward = RecordingForward(gate=gate)
        with MicroBatcher(forward, max_batch=16, max_wait_ms=200.0) as batcher:
            sizes = (2, 3, 1)
            values = [[10, 11], [20, 21, 22], [30]]
            futures = [batcher.submit(make_request(v)) for v in values]
            gate.set()
            results = [f.result(timeout=10.0) for f in futures]
        for size, value, rows in zip(sizes, values, results):
            assert rows.shape == (size,) + SHAPE
            assert np.array_equal(rows, make_request(value).target)

    def test_max_batch_caps_the_window(self):
        # 3 x 2-sample requests against max_batch=4: the third request
        # must be deferred to a second forward, never truncated.
        gate = threading.Event()
        forward = RecordingForward(gate=gate)
        with MicroBatcher(forward, max_batch=4, max_wait_ms=200.0) as batcher:
            futures = [batcher.submit(make_request([10 * i, 10 * i + 1]))
                       for i in range(3)]
            gate.set()
            for f in futures:
                assert f.result(timeout=10.0).shape == (2,) + SHAPE
        assert sum(forward.sizes) == 6
        assert all(size <= 4 for size in forward.sizes)

    def test_oversized_request_served_alone(self):
        forward = RecordingForward()
        with MicroBatcher(forward, max_batch=2, max_wait_ms=50.0) as batcher:
            rows = batcher.submit(
                make_request([1, 2, 3, 4, 5])).result(timeout=10.0)
        # Never split across forwards: one generation answers all of it.
        assert forward.sizes == [5]
        assert np.array_equal(rows, make_request([1, 2, 3, 4, 5]).target)

    def test_forward_failure_delivered_to_every_future_in_batch(self):
        gate = threading.Event()

        def explode(batch):
            raise RuntimeError("forward blew up")

        forward = RecordingForward(result=None, gate=gate)
        forward._result = explode
        with MicroBatcher(lambda b: forward(b), max_batch=8,
                          max_wait_ms=200.0) as batcher:
            futures = [batcher.submit(make_request([i])) for i in range(3)]
            gate.set()
            for f in futures:
                with pytest.raises(RuntimeError, match="forward blew up"):
                    f.result(timeout=10.0)

    def test_row_count_mismatch_is_an_error_not_a_wrong_answer(self):
        with MicroBatcher(lambda batch: batch.target[:-1],
                          max_batch=4, max_wait_ms=0.0) as batcher:
            future = batcher.submit(make_request([1, 2]))
            with pytest.raises(RuntimeError, match="rows"):
                future.result(timeout=10.0)

    def test_close_drains_queued_requests(self):
        forward = RecordingForward()
        batcher = MicroBatcher(forward, max_batch=4, max_wait_ms=0.0)
        futures = [batcher.submit(make_request([i])) for i in range(5)]
        batcher.close()
        for f in futures:
            assert f.result(timeout=10.0).shape == (1,) + SHAPE

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(echo_forward)
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(make_request([1]))

    def test_empty_request_rejected(self):
        with MicroBatcher(echo_forward) as batcher:
            with pytest.raises(ValueError, match="empty"):
                batcher.submit(make_request([]))

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(echo_forward, max_batch=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            MicroBatcher(echo_forward, max_wait_ms=-1.0)

    def test_on_batch_telemetry(self):
        seen = []

        def on_batch(requests, samples, forward_s, waits, latencies):
            seen.append((requests, samples, forward_s, waits, latencies))

        gate = threading.Event()
        forward = RecordingForward(gate=gate)
        with MicroBatcher(forward, max_batch=8, max_wait_ms=200.0,
                          on_batch=on_batch) as batcher:
            futures = [batcher.submit(make_request([i, i])) for i in range(2)]
            gate.set()
            for f in futures:
                f.result(timeout=10.0)
        assert sum(r for r, *_ in seen) == 2
        assert sum(s for _, s, *_ in seen) == 4
        for requests, samples, forward_s, waits, latencies in seen:
            assert forward_s >= 0
            assert len(waits) == len(latencies) == requests
            assert all(lat >= wait >= 0
                       for wait, lat in zip(waits, latencies))


class TestShutdownAudit:
    """No future returned by submit() may ever be left unresolved.

    The seeded bug (pre-fix): submit() checked _closed and enqueued
    without a lock, so a submit preempted between the check and the
    put could land its request *behind* close()'s shutdown sentinel —
    the consumer exited at the sentinel and the future stayed pending
    forever.  submit/close now order through a lock and the consumer
    drains past the sentinel, with a post-join sweep as backstop.
    """

    def test_request_behind_the_sentinel_is_still_resolved(self):
        from repro.serve.batcher import _Request

        gate = threading.Event()
        forward = RecordingForward(gate=gate)
        batcher = MicroBatcher(forward, max_batch=4, max_wait_ms=0.0)
        first = batcher.submit(make_request([1]))
        # Wait until the consumer owns the first window (blocked in the
        # gated forward), so nothing is draining the queue.
        assert forward.entered.wait(timeout=10.0)
        closer = threading.Thread(target=batcher.close,
                                  name="closer", daemon=True)
        closer.start()
        # Reproduce the preempted-submit interleaving deterministically:
        # a request enqueued after close()'s sentinel, exactly what the
        # unlocked submit() path used to allow.
        raced = _Request(make_request([7]))
        batcher._queue.put(raced)
        gate.set()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        assert first.result(timeout=10.0).shape == (1,) + SHAPE
        # The raced future must be *resolved* — served (the consumer
        # drains past the sentinel) or failed explicitly — never
        # pending forever as before the fix.
        assert raced.future.done()
        if raced.future.exception() is None:
            assert np.array_equal(raced.future.result(),
                                  make_request([7]).target)

    def test_submit_racing_close_never_strands_a_future(self):
        # Many submitters race one close(); every future that submit()
        # returned resolves promptly — with rows or with the explicit
        # "batcher is closed" error — and none hangs.
        for seed in range(3):
            forward = RecordingForward()
            batcher = MicroBatcher(forward, max_batch=8, max_wait_ms=0.5)
            futures, errors = [], []
            start = threading.Barrier(5)

            def submitter(rank):
                start.wait(timeout=10.0)
                for i in range(10):
                    try:
                        futures.append(
                            batcher.submit(make_request([rank * 100 + i])))
                    except RuntimeError as exc:
                        errors.append(str(exc))

            threads = [threading.Thread(target=submitter, args=(rank,),
                                        name=f"submit-{rank}", daemon=True)
                       for rank in range(4)]
            for thread in threads:
                thread.start()
            start.wait(timeout=10.0)
            batcher.close()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
            for future in futures:
                exc = future.exception(timeout=10.0)  # resolved, somehow
                assert exc is None or isinstance(exc, RuntimeError)
            assert all("closed" in message for message in errors)
