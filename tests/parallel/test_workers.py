"""WorkerSet: the forked-worker runtime under the engine and the pool.

The protocol-level contracts (gradient equivalence, served == offline,
the reply rule end to end) live with the engine and pool suites; these
tests pin what only the runtime decides: eviction and rank reuse, a
failed start, and teardown bounded by one grace period.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.parallel import ParallelWorkerError, WorkerSet, worker_rank
from repro.parallel import workers as workers_module


def _ranks(workers):
    """One round of empty messages; each worker replies with its rank."""
    return workers.round(lambda count: [()] * count)


class TestWorkerSet:
    def test_dead_worker_is_evicted_and_its_rank_reused(self):
        workers = WorkerSet(worker_rank, "worker")
        try:
            workers.scale_to(3)
            victim = sorted(multiprocessing.active_children(),
                            key=lambda proc: proc.name)[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(5.0)
            with pytest.raises(ParallelWorkerError,
                               match=r"worker 1 died \(exit code -9\)"):
                _ranks(workers)
            assert workers.size == 2
            assert _ranks(workers) == [0, 2]
            assert workers.scale_to(3) == 3
            assert _ranks(workers) == [0, 2, 1]
            assert workers.scale_to(1) == 1
            assert _ranks(workers) == [0]
        finally:
            workers.close()
        assert multiprocessing.active_children() == []
        with pytest.raises(RuntimeError, match="not running"):
            workers.scale_to(2)

    def test_failed_setup_fails_the_start(self):
        def broken_setup():
            raise OSError("no device")

        workers = WorkerSet(worker_rank, "replica", setup=broken_setup)
        with pytest.raises(ParallelWorkerError,
                           match="replica 0 failed to start: OSError: "
                                 "no device"):
            workers.scale_to(2)
        assert workers.size == 0
        workers.close()
        assert multiprocessing.active_children() == []

    def test_close_is_bounded_by_one_grace_period(self, monkeypatch):
        # Stopped children never read their stop message; the whole set
        # shares one deadline, then is killed (SIGTERM is ignored, so
        # there is no terminate step to wait through).
        monkeypatch.setattr(workers_module, "_GRACE_S", 0.5)
        workers = WorkerSet(worker_rank, "worker")
        workers.scale_to(2)
        children = multiprocessing.active_children()
        assert len(children) == 2
        for child in children:
            os.kill(child.pid, signal.SIGSTOP)
        begin = time.perf_counter()
        workers.close()
        elapsed = time.perf_counter() - begin
        assert elapsed < 0.5 + 2.0, f"close took {elapsed:.2f}s"
        assert multiprocessing.active_children() == []
        assert all(child.exitcode == -signal.SIGKILL for child in children)
