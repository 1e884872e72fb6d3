"""Tests for tape lifecycle management and the op profiler."""

import numpy as np
import pytest

from repro.profiling import OpProfiler, format_op_summary, get_active_profiler, profile
from repro.tensor import Tensor, check_gradients, conv2d, matmul


def build_graph():
    """Small conv + matmul graph; returns (loss, intermediates, leaves)."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 3, 6, 6)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
    hidden = conv2d(x, w, padding=1)
    activated = hidden.relu()
    loss = activated.sum()
    return loss, [hidden, activated], [x, w]


class TestTapeLifecycle:
    def test_backward_frees_closures_and_parents(self):
        loss, intermediates, leaves = build_graph()
        assert all(t._backward is not None for t in intermediates)
        loss.backward()
        for node in intermediates + [loss]:
            assert node._backward is None
            assert node._parents == ()
            assert node._freed
        # Leaves never carried closures and keep their gradients.
        for leaf in leaves:
            assert leaf.grad is not None
            assert not leaf._freed

    def test_retain_graph_preserves_tape(self):
        loss, intermediates, leaves = build_graph()
        loss.backward(retain_graph=True)
        for node in intermediates:
            assert node._backward is not None
            assert node._parents != ()
            assert not node._freed
        # A second backward over the retained tape reproduces the same
        # gradients once every node's accumulator is cleared.
        first = [leaf.grad.copy() for leaf in leaves]
        for node in intermediates + leaves + [loss]:
            node.zero_grad()
        loss.backward()
        for leaf, grad in zip(leaves, first):
            np.testing.assert_allclose(leaf.grad, grad)

    def test_second_backward_after_free_raises(self):
        loss, _intermediates, _leaves = build_graph()
        loss.backward()
        with pytest.raises(RuntimeError, match="freed"):
            loss.backward()

    def test_freeing_does_not_change_gradients(self):
        # Same graph twice: freed vs retained must agree exactly.
        loss_a, _, leaves_a = build_graph()
        loss_a.backward()
        loss_b, _, leaves_b = build_graph()
        loss_b.backward(retain_graph=True)
        for a, b in zip(leaves_a, leaves_b):
            np.testing.assert_array_equal(a.grad, b.grad)

    def test_gradcheck_passes_with_freeing(self):
        # check_gradients calls backward() (default: freeing on) and
        # compares against finite differences.
        rng = np.random.default_rng(1)
        a = Tensor(rng.standard_normal((4, 3)))
        b = Tensor(rng.standard_normal((3, 2)))
        assert check_gradients(lambda t: (matmul(t[0], t[1]).tanh()).sum(), [a, b])


class TestOpProfiler:
    def test_disabled_by_default(self):
        assert get_active_profiler() is None
        loss, _, _ = build_graph()
        loss.backward()
        assert get_active_profiler() is None

    def test_records_forward_and_backward(self):
        with profile() as prof:
            loss, _, _ = build_graph()
            loss.backward()
        stats = prof.stats
        for name in ("conv2d", "relu", "sum"):
            assert stats[name].calls == 1
            assert stats[name].backward_calls == 1
            assert stats[name].forward_s >= 0.0
            assert stats[name].backward_s >= 0.0
        assert stats["conv2d"].output_bytes == 2 * 4 * 6 * 6 * 8
        assert prof.total_forward_s >= 0.0
        assert prof.total_backward_s > 0.0

    def test_tape_accounting_peaks_then_drains(self):
        with profile() as prof:
            loss, _, _ = build_graph()
            assert prof.tape_bytes > 0
            peak_before_backward = prof.peak_tape_bytes
            loss.backward()
        assert prof.tape_bytes == 0
        assert prof.peak_tape_bytes == peak_before_backward > 0

    def test_retained_graph_keeps_tape_bytes(self):
        with profile() as prof:
            loss, _, _ = build_graph()
            loss.backward(retain_graph=True)
            assert prof.tape_bytes > 0
            # Two live graphs: peak should roughly double.
            loss2, _, _ = build_graph()
            loss2.backward(retain_graph=True)
        assert prof.peak_tape_bytes >= 2 * loss.data.nbytes  # trivially true
        assert prof.tape_bytes == prof.peak_tape_bytes

    def test_freeing_halves_two_step_peak(self):
        def run(retain_graph):
            prof = OpProfiler()
            with profile(prof):
                held = build_graph()[0]
                held.backward(retain_graph=retain_graph)
                held2 = build_graph()[0]  # noqa: F841 — keeps graph 2 alive
                held2.backward(retain_graph=retain_graph)
            return prof.peak_tape_bytes

        freed = run(False)
        retained = run(True)
        assert retained == 2 * freed

    def test_nesting_restores_previous(self):
        with profile() as outer:
            with profile() as inner:
                assert get_active_profiler() is inner
            assert get_active_profiler() is outer
        assert get_active_profiler() is None

    def test_accumulates_across_blocks(self):
        prof = OpProfiler()
        with profile(prof):
            build_graph()
        with profile(prof):
            build_graph()
        assert prof.stats["conv2d"].calls == 2

    def test_no_grad_ops_recorded_off_tape(self):
        from repro.tensor import no_grad

        with profile() as prof:
            with no_grad():
                Tensor(np.ones((2, 2))).relu()
        assert prof.stats["relu"].calls == 1
        assert prof.tape_bytes == 0

    def test_snapshot_and_summary(self):
        with profile() as prof:
            loss, _, _ = build_graph()
            loss.backward()
        snapshot = prof.snapshot()
        assert set(snapshot) == {"ops", "total_forward_s", "total_backward_s",
                                 "peak_tape_bytes", "grad_alloc_bytes",
                                 "optimizer_alloc_bytes", "optimizer_steps",
                                 "forward_alloc_bytes"}
        assert snapshot["grad_alloc_bytes"] > 0
        assert snapshot["ops"]["conv2d"]["calls"] == 1
        rendered = format_op_summary(snapshot, limit=2)
        assert "conv2d" in rendered
        assert "peak tape" in rendered
        assert "omitted" in rendered  # 3 ops, limit 2
        assert prof.summary()  # full render also works

    def test_reset_clears_everything(self):
        with profile() as prof:
            loss, _, _ = build_graph()
            loss.backward()
            prof.reset()
        assert prof.stats == {}
        assert prof.tape_bytes == 0
        assert prof.peak_tape_bytes == 0


class TestGradModeIsThreadLocal:
    """``no_grad`` on one thread must not switch off another's tape.

    Seeded bug: the grad-enabled flag was a process-global, so a
    serving thread evaluating inside ``no_grad()`` raced a concurrent
    training step — the step's forward recorded no tape and
    ``backward()`` blew up with "does not require grad".  Found by the
    sanitizer-stressed drift-retrain test; the flag is now per-thread.
    """

    def test_no_grad_on_another_thread_leaves_tape_recording_on(self):
        import threading

        from repro.tensor import is_grad_enabled, no_grad

        inside = threading.Event()
        release = threading.Event()

        def eval_thread():
            with no_grad():
                inside.set()
                release.wait(timeout=10.0)

        worker = threading.Thread(target=eval_thread, daemon=True)
        worker.start()
        assert inside.wait(timeout=10.0)
        try:
            # The eval thread is parked *inside* no_grad right now;
            # with a process-global flag this forward records nothing
            # and backward() raises.
            assert is_grad_enabled()
            loss, _, leaves = build_graph()
            loss.backward()
            assert all(leaf.grad is not None for leaf in leaves)
        finally:
            release.set()
            worker.join(timeout=10.0)
        assert not worker.is_alive()

    def test_no_grad_still_restores_state_on_its_own_thread(self):
        from repro.tensor import is_grad_enabled, no_grad

        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()
