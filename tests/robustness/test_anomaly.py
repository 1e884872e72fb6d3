"""detect_anomaly() pinpoints the exact op that introduced a NaN/Inf."""

import numpy as np
import pytest

from repro.tensor import (
    AnomalyError,
    Tensor,
    detect_anomaly,
    is_anomaly_enabled,
)
from repro.training import TrainConfig, Trainer

from tests.robustness.injectors import FaultInjector, ToyForecaster


class TestForwardDetection:
    def test_log_of_negative_names_log(self):
        x = Tensor(np.array([1.0, -1.0]))
        with detect_anomaly(), pytest.raises(AnomalyError) as excinfo:
            with np.errstate(invalid="ignore"):
                x.log()
        assert excinfo.value.op == "log"
        assert excinfo.value.phase == "forward"
        assert "this op is the origin" in str(excinfo.value)

    def test_tainted_input_is_attributed_to_the_input(self):
        # The NaN pre-dates the op: the message must say so instead of
        # blaming the op's arithmetic.
        x = Tensor(np.array([float("nan"), 1.0]))
        with detect_anomaly(), pytest.raises(AnomalyError) as excinfo:
            x * 2.0
        assert excinfo.value.op == "mul"
        assert "entered through this op's input" in str(excinfo.value)

    def test_message_carries_shapes_and_census(self):
        x = Tensor(np.full((2, 3), -1.0))
        with detect_anomaly(), pytest.raises(AnomalyError) as excinfo:
            with np.errstate(invalid="ignore"):
                x.log()
        message = str(excinfo.value)
        assert "shape=(2, 3)" in message
        assert "6 NaN" in message


class TestBackwardDetection:
    def test_sqrt_at_zero_names_sqrt_backward(self):
        # Forward sqrt(0) = 0 is finite; the backward 0.5/0 is not.
        x = Tensor(np.array([0.0, 4.0]), requires_grad=True)
        with detect_anomaly():
            loss = x.sqrt().sum()
            with pytest.raises(AnomalyError) as excinfo, \
                    np.errstate(divide="ignore"):
                loss.backward()
        assert excinfo.value.op == "sqrt"
        assert excinfo.value.phase == "backward"
        assert "deposited a non-finite gradient" in str(excinfo.value)


class TestModeScoping:
    def test_off_by_default_and_restored_on_exit(self):
        assert not is_anomaly_enabled()
        with detect_anomaly():
            assert is_anomaly_enabled()
            with detect_anomaly():
                assert is_anomaly_enabled()
            assert is_anomaly_enabled()
        assert not is_anomaly_enabled()

    def test_no_check_outside_the_context(self):
        x = Tensor(np.array([-1.0]))
        with np.errstate(invalid="ignore"):
            y = x.log()  # silently NaN, as before this feature
        assert np.isnan(y.data).all()

    def test_restored_after_raise(self):
        x = Tensor(np.array([-1.0]))
        with pytest.raises(AnomalyError):
            with detect_anomaly(), np.errstate(invalid="ignore"):
                x.log()
        assert not is_anomaly_enabled()


class TestTrainerIntegration:
    def test_fit_under_detect_anomaly_names_the_poisoning_op(self, tiny_data):
        model = FaultInjector(ToyForecaster(tiny_data), nan_loss_steps={0})
        trainer = Trainer(model, TrainConfig(
            epochs=1, batch_size=8, seed=0, detect_anomaly=True))
        # The injector multiplies the loss by NaN: anomaly mode points
        # straight at that 'mul', not at a downstream symptom.
        with pytest.raises(AnomalyError) as excinfo:
            trainer.fit(tiny_data)
        assert excinfo.value.op == "mul"
        assert excinfo.value.phase == "forward"

    def test_clean_fit_under_detect_anomaly_passes(self, tiny_data):
        model = ToyForecaster(tiny_data)
        trainer = Trainer(model, TrainConfig(
            epochs=1, batch_size=8, seed=0, detect_anomaly=True))
        history = trainer.fit(tiny_data)
        assert history.epochs_run == 1


class TestNoStateLeakageOnRaise:
    """A raising anomaly hook must leave no tape or profiler state.

    Regression tests: the forward check used to run *after* the result
    joined the tape and the profiler's accounting, so a failed op
    leaked its output bytes forever; a mid-backward raise used to leave
    the tape alive, so retrying backward() silently double-deposited
    gradients.
    """

    def test_forward_raise_records_no_tape_bytes(self):
        from repro.profiling import profile

        x = Tensor(np.full(16, -1.0), requires_grad=True)
        with profile() as prof:
            with pytest.raises(AnomalyError), detect_anomaly(), \
                    np.errstate(invalid="ignore"):
                x.log()
            # The failed log's 16 float64 outputs (128 bytes) must not
            # stay on the books: nothing can ever free them.
            assert prof.tape_bytes == 0
        # Reversed nesting: the check still runs before the profiler
        # records, whichever of the two was installed first.
        with detect_anomaly():
            with profile() as prof, pytest.raises(AnomalyError), \
                    np.errstate(invalid="ignore"):
                x.log()
            assert prof.tape_bytes == 0
            assert prof.stats == {}

    def test_backward_raise_frees_the_tape(self):
        from repro.profiling import profile

        x = Tensor(np.array([0.0, 4.0]), requires_grad=True)
        with profile() as prof:
            with detect_anomaly():
                loss = x.sqrt().sum()
                assert prof.tape_bytes > 0
                # sqrt'(0) = inf: the backward anomaly check raises
                # mid-walk, after some gradients have been deposited.
                with pytest.raises(AnomalyError), \
                        np.errstate(divide="ignore"):
                    loss.backward()
            assert prof.tape_bytes == 0

    def test_retry_after_backward_raise_is_an_explicit_error(self):
        # A partially-backpropagated graph has already deposited into
        # some nodes; a silent retry would double-count.  The tape is
        # freed in the raise path, so the retry fails loudly instead.
        x = Tensor(np.array([0.0, 4.0]), requires_grad=True)
        with detect_anomaly():
            loss = x.sqrt().sum()
            with pytest.raises(AnomalyError), np.errstate(divide="ignore"):
                loss.backward()
        with pytest.raises(RuntimeError, match="freed graph"):
            loss.backward()

    def test_retain_graph_survives_a_backward_raise(self):
        # retain_graph=True opts out of the free — the caller asked to
        # keep the tape, raise or no raise.
        x = Tensor(np.array([0.0, 4.0]), requires_grad=True)
        with detect_anomaly():
            loss = x.sqrt().sum()
            with pytest.raises(AnomalyError), np.errstate(divide="ignore"):
                loss.backward(retain_graph=True)
        with np.errstate(divide="ignore"):
            loss.backward(retain_graph=True)  # still alive
