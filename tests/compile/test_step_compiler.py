"""Bit-equivalence and plan-cache behaviour of the compiled training step."""

import numpy as np
import pytest

from repro.compile import StepCompiler, batch_signature
from repro.optim import Adam
from repro.profiling import OpProfiler, profile
from repro.tensor import Tensor, default_dtype, detect_anomaly

from tests.compile.conftest import (assert_bitwise, compiled_steps,
                                    eager_steps, make_baseline_model,
                                    make_muse)

STEPS = 5  # build + shadow + >= 3 trusted replays per signature


def batches_for(data, count, size=8):
    """Deterministic same-signature batches cycling over the train split."""
    n = len(data.train)
    return [data.train.take([(i * size + j) % n for j in range(size)])
            for i in range(count)]


class TestBitEquivalence:
    def test_muse_float32(self, tiny_data, muse_config):
        batches = batches_for(tiny_data, STEPS)
        with default_dtype(np.float32):
            data = tiny_data.astype(np.float32)
            batches32 = [b.astype(np.float32) for b in batches]
            model = make_muse(muse_config)
            optimizer = Adam(model.parameters(), lr=1e-3)
            eager = eager_steps(model, optimizer,
                                np.random.default_rng(0), batches32)
            model2 = make_muse(muse_config)
            optimizer2 = Adam(model2.parameters(), lr=1e-3)
            compiled = compiled_steps(model2, optimizer2,
                                      np.random.default_rng(0), batches32)
        assert_bitwise(eager, compiled)
        report = compiled[3].snapshot()
        assert report["plans_built"] == 1
        assert report["build_s"] > 0.0
        assert report["plans_validated"] == 1
        assert report["compiled_steps"] >= 3
        assert report["fallbacks"] == {}
        del data

    @pytest.mark.parametrize("name", ["RNN", "CONVGCN"])
    def test_baselines_float64(self, tiny_data, name):
        batches = batches_for(tiny_data, STEPS)
        model = make_baseline_model(name, tiny_data)
        optimizer = Adam(model.parameters(), lr=1e-3)
        eager = eager_steps(model, optimizer, np.random.default_rng(0),
                            batches)
        model2 = make_baseline_model(name, tiny_data)
        optimizer2 = Adam(model2.parameters(), lr=1e-3)
        compiled = compiled_steps(model2, optimizer2,
                                  np.random.default_rng(0), batches)
        assert_bitwise(eager, compiled)
        assert compiled[3].snapshot()["compiled_steps"] >= 3

    def test_full_fit_matches_eager(self, tiny_data, muse_config):
        from repro.training import Trainer, TrainConfig

        def fit(compile_flag):
            model = make_muse(muse_config)
            trainer = Trainer(model, TrainConfig(
                epochs=2, batch_size=8, seed=0, dtype="float32",
                compile=compile_flag))
            history = trainer.fit(tiny_data)
            params = [p.data.copy() for p in trainer.optimizer.parameters]
            return history, params

        h_eager, p_eager = fit(False)
        h_comp, p_comp = fit(True)
        assert h_eager.train_loss == h_comp.train_loss
        assert h_eager.val_rmse == h_comp.val_rmse
        for a, b in zip(p_eager, p_comp):
            np.testing.assert_array_equal(a, b)
        assert h_eager.compiled is None
        assert h_comp.compiled["compiled_steps"] > 0
        assert h_comp.compiled["plans_validated"] >= 1


class TestPlanCache:
    def test_shape_change_builds_second_plan(self, tiny_data):
        model = make_baseline_model("RNN", tiny_data)
        optimizer = Adam(model.parameters(), lr=1e-3)
        compiler = StepCompiler(model, optimizer, np.random.default_rng(0))
        full = batches_for(tiny_data, 3, size=8)
        ragged = batches_for(tiny_data, 3, size=5)
        for batch in full + ragged:
            compiler.step(batch)
            optimizer.step()
        report = compiler.snapshot()
        assert report["plans_built"] == 2
        assert report["plans_validated"] == 2
        assert report["compiled_steps"] == 2  # one trusted replay each

    def test_dtype_policy_changes_signature(self, tiny_data):
        batch = batches_for(tiny_data, 1)[0].astype(np.float32)
        with default_dtype(np.float32):
            sig32 = batch_signature(batch)
        with default_dtype(np.float64):
            sig_mixed = batch_signature(batch)
        assert sig32 != sig_mixed

    def test_detect_anomaly_falls_back_to_eager(self, tiny_data):
        model = make_baseline_model("RNN", tiny_data)
        optimizer = Adam(model.parameters(), lr=1e-3)
        batches = batches_for(tiny_data, 2)

        reference = make_baseline_model("RNN", tiny_data)
        ref_opt = Adam(reference.parameters(), lr=1e-3)
        eager = eager_steps(reference, ref_opt, np.random.default_rng(0),
                            batches)

        compiler = StepCompiler(model, optimizer, np.random.default_rng(0))
        losses = []
        with detect_anomaly():
            for batch in batches:
                losses.append(compiler.step(batch))
                optimizer.step()
        assert losses == eager[0]
        report = compiler.snapshot()
        assert report["plans_built"] == 0
        assert report["eager_steps"] == 2
        assert "detect_anomaly" in report["fallbacks"]

    def test_recording_failure_pins_eager(self, tiny_data):
        """A graph op the recorder can't claim forces (correct) eager."""
        from types import SimpleNamespace

        from repro.core.losses import LossBreakdown
        from repro.nn import Linear, Module
        from repro.tensor.tensor import Tensor as T

        class OpaqueModel(Module):
            """Builds one tape node via raw _from_op — unrecordable."""

            def __init__(self, data):
                super().__init__()
                n, length, c, h, w = data.train.closeness.shape
                self._out_shape = (c, h, w)
                self.linear = Linear(length * c * h * w, c * h * w,
                                     rng=np.random.default_rng(0))

            def training_loss(self, batch, rng=None):
                flat = Tensor(np.ascontiguousarray(batch.closeness)
                              .reshape(len(batch), -1))
                hidden = self.linear(flat)
                # An op instrumented for autodiff but not for replay.
                opaque = T._from_op(
                    np.tanh(hidden.data), (hidden,),
                    lambda g: hidden._accumulate_grad(
                        g * (1.0 - np.tanh(hidden.data) ** 2)),
                    name="opaque")
                target = Tensor(np.ascontiguousarray(batch.target)
                                .reshape(len(batch), -1))
                reg = ((opaque - target) * (opaque - target)).mean()
                zero = Tensor(0.0)
                breakdown = LossBreakdown(total=reg, dis=zero, push=zero,
                                          pull=zero, reg=reg)
                return breakdown, SimpleNamespace(prediction=opaque)

        batches = batches_for(tiny_data, 3)
        reference = OpaqueModel(tiny_data)
        ref_opt = Adam(reference.parameters(), lr=1e-3)
        eager = eager_steps(reference, ref_opt, np.random.default_rng(0),
                            batches)

        model = OpaqueModel(tiny_data)
        optimizer = Adam(model.parameters(), lr=1e-3)
        compiled = compiled_steps(model, optimizer,
                                  np.random.default_rng(0), batches)
        assert_bitwise(eager, compiled)
        report = compiled[3].snapshot()
        assert report["plans_built"] == 0
        assert report["compiled_steps"] == 0
        assert any("recording failed" in reason
                   for reason in report["fallbacks"].values())

    def test_rollback_zero_grad_interplay(self, tiny_data):
        """A trusted plan survives zero_grad (grad=None) between steps.

        The trainer's rollback path restores a snapshot and calls
        ``zero_grad`` on every parameter, dropping the gradient buffers
        a replay would normally rewrite in place — the next replay must
        reallocate and still match eager exactly.
        """
        batches = batches_for(tiny_data, 4)
        reference = make_baseline_model("RNN", tiny_data)
        ref_opt = Adam(reference.parameters(), lr=1e-3)
        ref_losses = []
        rng = np.random.default_rng(0)
        for i, batch in enumerate(batches):
            ref_opt.zero_grad()
            breakdown, _ = reference.training_loss(batch, rng=rng)
            breakdown.total.backward()
            ref_losses.append((breakdown.total.item(),
                               breakdown.reg.item()))
            if i != 2:  # step 2's update is "rolled back" below
                ref_opt.step()

        model = make_baseline_model("RNN", tiny_data)
        optimizer = Adam(model.parameters(), lr=1e-3)
        compiler = StepCompiler(model, optimizer, np.random.default_rng(0))
        losses = []
        for i, batch in enumerate(batches):
            losses.append(compiler.step(batch))
            if i == 2:
                optimizer.zero_grad()  # sentinel rollback drops this step
            else:
                optimizer.step()
        assert losses == ref_losses
        for a, b in zip(reference.parameters(), model.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_train_config_rejects_compile_with_workers(self, capsys):
        from repro.cli import main
        from repro.training import TrainConfig

        with pytest.raises(ValueError, match="workers"):
            TrainConfig(workers=1, compile=True)
        assert main(["train", "MUSE-Net", "--workers", "2",
                     "--compile"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "workers" in err
        assert "Traceback" not in err


class TestZeroAllocation:
    def test_no_forward_allocations_after_warmup(self, tiny_data):
        model = make_baseline_model("RNN", tiny_data)
        optimizer = Adam(model.parameters(), lr=1e-3)
        compiler = StepCompiler(model, optimizer, np.random.default_rng(0))
        batches = batches_for(tiny_data, 6)
        for batch in batches[:3]:  # build + shadow + first trusted replay
            compiler.step(batch)
            optimizer.step()
        replayed = compiler.snapshot()["compiled_steps"]
        prof = OpProfiler()
        with profile(prof):
            for batch in batches[3:]:
                compiler.step(batch)
                optimizer.step()
        assert compiler.snapshot()["compiled_steps"] >= 4
        # Replays never touch _from_op: zero forward-arena bytes.
        assert prof.forward_alloc_bytes == 0
        assert compiler.snapshot()["compiled_steps"] - replayed == 3

    def test_eager_steps_do_allocate(self, tiny_data):
        """Control: the same steps run eagerly allocate megabytes."""
        model = make_baseline_model("RNN", tiny_data)
        optimizer = Adam(model.parameters(), lr=1e-3)
        rng = np.random.default_rng(0)
        prof = OpProfiler()
        with profile(prof):
            eager_steps(model, optimizer, rng, batches_for(tiny_data, 2))
        assert prof.forward_alloc_bytes > 0
