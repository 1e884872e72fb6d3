"""The in-place Adam kernel must match the reference kernel exactly.

:class:`repro.optim.Adam` rewrites each update with preallocated
buffers and ``out=`` ufuncs; these tests pin it to the allocating
reference implementation (:mod:`repro.optim.reference`) step for step
in float64, including weight decay and resumption from a checkpoint.
"""

import numpy as np
import pytest

from repro.nn.module import Module, Parameter
from repro.optim import Adam, ReferenceAdam, clip_grad_norm
from repro.training import load_checkpoint, save_checkpoint

SHAPES = [(4, 3), (5,), (2, 2, 3)]

PAIRS = [
    ("adam", Adam, ReferenceAdam, {"lr": 1e-3}),
    ("adam-wd", Adam, ReferenceAdam, {"lr": 1e-3, "weight_decay": 1e-2}),
]


def make_params(seed=0):
    rng = np.random.default_rng(seed)
    return [Parameter(rng.standard_normal(shape), name=f"p{i}")
            for i, shape in enumerate(SHAPES)]


def drive(optimizer, params, steps, seed=1):
    """Run ``steps`` updates with a deterministic gradient stream."""
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        for param in params:
            param.grad = rng.standard_normal(param.data.shape)
        optimizer.step()


class TestEquivalence:
    @pytest.mark.parametrize("name,fast_cls,ref_cls,kwargs",
                             PAIRS, ids=[p[0] for p in PAIRS])
    def test_matches_reference_over_50_steps(self, name, fast_cls, ref_cls,
                                             kwargs):
        fast_params = make_params()
        ref_params = make_params()
        drive(fast_cls(fast_params, **kwargs), fast_params, steps=50)
        drive(ref_cls(ref_params, **kwargs), ref_params, steps=50)
        for fast, ref in zip(fast_params, ref_params):
            np.testing.assert_allclose(fast.data, ref.data,
                                       rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name,fast_cls,ref_cls,kwargs",
                             PAIRS, ids=[p[0] for p in PAIRS])
    def test_state_dicts_match_reference(self, name, fast_cls, ref_cls,
                                         kwargs):
        fast_params = make_params()
        ref_params = make_params()
        fast = fast_cls(fast_params, **kwargs)
        ref = ref_cls(ref_params, **kwargs)
        drive(fast, fast_params, steps=10)
        drive(ref, ref_params, steps=10)
        assert len(fast._state) == len(ref._state)
        for fast_state, ref_state in zip(fast._state, ref._state):
            assert set(fast_state) == set(ref_state)
            for key in fast_state:
                np.testing.assert_allclose(
                    np.asarray(fast_state[key]), np.asarray(ref_state[key]),
                    rtol=0.0, atol=1e-12)


class _TinyModel(Module):
    def __init__(self, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.w = Parameter(rng.standard_normal((4, 3)), name="w")
        self.b = Parameter(rng.standard_normal((3,)), name="b")


def drive_model(model, optimizer, steps, seed=1, start=0):
    rng = np.random.default_rng(seed)
    for step in range(start + steps):
        grads = [rng.standard_normal(p.data.shape) for p in model.parameters()]
        if step < start:
            continue  # replay the stream so resumed runs see the same grads
        for param, grad in zip(model.parameters(), grads):
            param.grad = grad
        optimizer.step()


class TestCheckpointResume:
    def test_resumed_inplace_matches_uninterrupted_reference(self, tmp_path):
        # Reference runs 30 steps straight; the in-place kernel resumes
        # from the reference's 10-step checkpoint and runs the last 20.
        ref_model = _TinyModel()
        ref_opt = ReferenceAdam(ref_model.parameters(), lr=1e-3,
                                weight_decay=1e-2)
        drive_model(ref_model, ref_opt, steps=10)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, ref_model, ref_opt)
        drive_model(ref_model, ref_opt, steps=20, start=10)

        resumed_model = _TinyModel(seed=99)  # different init: must be loaded
        resumed_opt = Adam(resumed_model.parameters(), lr=1e-3,
                           weight_decay=1e-2)
        load_checkpoint(path, resumed_model, resumed_opt)
        drive_model(resumed_model, resumed_opt, steps=20, start=10)

        for ref, res in zip(ref_model.parameters(), resumed_model.parameters()):
            np.testing.assert_allclose(res.data, ref.data,
                                       rtol=0.0, atol=1e-12)

    def test_resume_after_dtype_cast_self_heals_buffers(self, tmp_path):
        # Scratch buffers allocated in float64 must be rebuilt when a
        # float32 state is restored (shape/dtype revalidation).
        model = _TinyModel()
        opt = Adam(model.parameters(), lr=1e-3)
        drive_model(model, opt, steps=3)
        for param in model.parameters():
            param.data = param.data.astype(np.float32)
            param.grad = None
        for index, state in enumerate(opt._state):
            opt._state[index] = {
                key: (value.astype(np.float32)
                      if isinstance(value, np.ndarray) else value)
                for key, value in state.items()
            }
        drive_model(model, opt, steps=2, start=3)
        for param in model.parameters():
            assert param.data.dtype == np.float32
        for state in opt._state:
            assert state["m"].dtype == np.float32


class TestClipGradNorm:
    def test_value_matches_definition(self):
        params = make_params()
        rng = np.random.default_rng(3)
        for param in params:
            param.grad = rng.standard_normal(param.data.shape)
        expected = float(np.sqrt(sum(float((p.grad ** 2).sum())
                                     for p in params)))
        max_norm = expected / 2.0
        grads_before = [p.grad for p in params]
        returned = clip_grad_norm(params, max_norm)
        assert returned == pytest.approx(expected, rel=1e-12)
        for param, original in zip(params, grads_before):
            assert param.grad is original  # rescaled in place, not replaced
        clipped = float(np.sqrt(sum(float((p.grad ** 2).sum())
                                    for p in params)))
        assert clipped == pytest.approx(max_norm, rel=1e-9)

    def test_no_dtype_upcast_on_float32_grads(self):
        params = make_params()
        rng = np.random.default_rng(3)
        for param in params:
            param.data = param.data.astype(np.float32)
            param.grad = rng.standard_normal(param.data.shape).astype(np.float32)
        clip_grad_norm(params, 1e-3)  # tiny max_norm forces a rescale
        for param in params:
            assert param.grad.dtype == np.float32


class TestAllocationCounters:
    def test_inplace_kernels_allocate_zero_in_steady_state(self):
        for name, fast_cls, _ref_cls, kwargs in PAIRS:
            params = make_params()
            opt = fast_cls(params, **kwargs)
            drive(opt, params, steps=2)  # step 1 allocates state + scratch
            assert opt.last_step_alloc_bytes == 0, name
            assert opt.alloc_bytes_total > 0, name  # the one-time setup

    def test_reference_kernels_allocate_every_step(self):
        for name, _fast_cls, ref_cls, kwargs in PAIRS:
            params = make_params()
            opt = ref_cls(params, **kwargs)
            drive(opt, params, steps=2)
            assert opt.last_step_alloc_bytes > 0, name


def _snapshot_state(optimizer):
    return [{key: value.copy() if isinstance(value, np.ndarray) else value
             for key, value in state.items()}
            for state in optimizer._state]


class TestArena:
    """The flat arena behind every optimizer step (repro.optim.base)."""

    def test_parameter_without_gradient_keeps_its_state(self):
        params = make_params()
        opt = Adam(params, lr=1e-3)
        rng = np.random.default_rng(1)
        drive(opt, params, steps=2)
        before = _snapshot_state(opt)[1]
        params[0].grad = rng.standard_normal(params[0].data.shape)
        params[1].grad = None
        params[2].grad = rng.standard_normal(params[2].data.shape)
        opt.step()
        after = opt._state[1]
        assert after["t"] == before["t"] == 2
        np.testing.assert_array_equal(after["m"], before["m"])
        np.testing.assert_array_equal(after["v"], before["v"])
        assert [state["t"] for state in opt._state] == [3, 2, 3]

    def test_each_parameter_updates_with_its_own_step_count(self):
        # Parameter 1 skips step 3, so from then on its t trails the
        # others by one; every parameter must match an optimizer that
        # only ever saw its own gradient stream, bitwise.
        params = make_params()
        alone = make_params()
        opt = Adam(params, lr=1e-3, weight_decay=1e-2)
        singles = [Adam([p], lr=1e-3, weight_decay=1e-2) for p in alone]
        runs = []
        sweep = opt._sweep

        def recording_sweep(arena, flats, start, stop, t):
            runs.append((start, stop, t))
            sweep(arena, flats, start, stop, t)

        opt._sweep = recording_sweep
        rng = np.random.default_rng(5)
        for step in range(6):
            runs.clear()
            for index, (param, twin) in enumerate(zip(params, alone)):
                grad = rng.standard_normal(param.data.shape)
                skip = step == 2 and index == 1
                param.grad = None if skip else grad
                twin.grad = None if skip else grad.copy()
            opt.step()
            for single, twin in zip(singles, alone):
                if twin.grad is not None:
                    single.step()
        # Step 6: t is (6, 5, 6), so no two neighbours share a run.
        assert runs == [(0, 1, 6), (1, 2, 5), (2, 3, 6)]
        for param, twin in zip(params, alone):
            np.testing.assert_array_equal(param.data, twin.data)
        # Parameter 2 skips a step too: t becomes (7, 6, 6) ...
        params[2].grad = None
        runs.clear()
        opt.step()
        assert runs == [(0, 1, 7), (1, 2, 6)]
        # ... and the two parameters with equal t share one run.
        for param in params:
            param.grad = np.ones_like(param.data)
        runs.clear()
        opt.step()
        assert runs == [(0, 1, 8), (1, 3, 7)]

    def test_gradients_and_state_live_in_the_arena(self):
        params = make_params()
        opt = Adam(params, lr=1e-3)
        drive(opt, params, steps=1)
        flat, views = opt.flat_grads()
        for param, state, view in zip(params, opt._state, views):
            assert param.grad is view and param._grad_buf is view
            assert np.shares_memory(view, flat)
            assert state["m"].base is not None
            assert not np.shares_memory(state["m"], state["v"])
        for param in params:
            param.zero_grad()
        assert all(param.grad is None for param in params)

    @pytest.mark.parametrize("how", ["assign", "checkpoint", "snapshot"])
    def test_replaced_state_is_copied_in_and_never_written(self, tmp_path,
                                                           how):
        from repro.training import Trainer

        def run(replace):
            model = _TinyModel()
            trainer = Trainer(model)
            opt = trainer.optimizer
            drive_model(model, opt, steps=3)
            installed = None
            if replace:
                if how == "assign":
                    opt._state = _snapshot_state(opt)
                elif how == "checkpoint":
                    path = tmp_path / "ckpt.npz"
                    save_checkpoint(path, model, opt)
                    load_checkpoint(path, model, opt)
                else:
                    trainer._restore_snapshot(trainer._take_snapshot())
                installed = [dict(state) for state in opt._state]
                kept = _snapshot_state(opt)
            drive_model(model, opt, steps=4, start=3)
            if replace:
                for index, (state, values) in enumerate(zip(installed, kept)):
                    for key, value in state.items():
                        np.testing.assert_array_equal(value, values[key])
                        if isinstance(value, np.ndarray):
                            assert opt._state[index][key] is not value
            return model, opt

        replaced, opt = run(True)
        plain, _ = run(False)
        for a, b in zip(replaced.parameters(), plain.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        flat, _views = opt.flat_grads()
        for state in opt._state:
            assert state["m"].base is not None  # an arena view again

    def test_rollback_twice_to_one_snapshot(self):
        from repro.training import Trainer

        model = _TinyModel()
        trainer = Trainer(model)
        drive_model(model, trainer.optimizer, steps=2)
        snapshot = trainer._take_snapshot()
        results = []
        for _ in range(2):
            trainer._restore_snapshot(snapshot)
            drive_model(model, trainer.optimizer, steps=3, start=2)
            results.append([p.data.copy() for p in model.parameters()])
        for a, b in zip(*results):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name,fast_cls,ref_cls,kwargs",
                             PAIRS, ids=[p[0] for p in PAIRS])
    def test_two_dtypes_step_like_one_optimizer_per_dtype(self, name,
                                                          fast_cls, ref_cls,
                                                          kwargs):
        mixed = make_params()
        split = make_params()
        for group in (mixed, split):
            group[1].data = group[1].data.astype(np.float32)
        opt = fast_cls(mixed, **kwargs)
        per_dtype = [fast_cls([split[0], split[2]], **kwargs),
                     fast_cls([split[1]], **kwargs)]
        rng = np.random.default_rng(1)
        for _ in range(10):
            for a, b in zip(mixed, split):
                grad = rng.standard_normal(a.data.shape).astype(a.data.dtype)
                a.grad, b.grad = grad, grad.copy()
            opt.step()
            for single in per_dtype:
                single.step()
        assert len(opt._arenas) == 2
        for a, b in zip(mixed, split):
            assert a.data.dtype == b.data.dtype
            np.testing.assert_array_equal(a.data, b.data)
        for state, param in zip(opt._state, mixed):
            for value in state.values():
                if isinstance(value, np.ndarray):
                    assert value.dtype == param.data.dtype

    def test_parameter_gradients_allocate_only_in_the_first_step(self):
        # A serial fit allocates each parameter's gradient once; every
        # later backward deposits into the optimizer's arena.
        from repro.data import load_dataset, prepare_forecast_data
        from repro.profiling import profile
        from repro.training import TrainConfig, Trainer
        from tests.robustness.injectors import ToyForecaster

        data = prepare_forecast_data(load_dataset("nyc-bike", scale="tiny"),
                                     max_train_samples=16,
                                     max_test_samples=8)
        model = ToyForecaster(data)
        names = []
        for index, param in enumerate(model.parameters()):
            param.name = f"param{index}"
            names.append(param.name)
        trainer = Trainer(model, TrainConfig(epochs=3, batch_size=4,
                                             sentinel=None))
        with profile() as prof:
            trainer.fit(data)
        assert prof.optimizer_steps == 12
        param_bytes = sum(p.data.nbytes for p in model.parameters())
        assert sum(prof.stats[n].grad_bytes for n in names) == param_bytes
