"""Tests for training checkpoints."""

import numpy as np
import pytest

from repro.core import MUSENet
from repro.nn import Linear, Module, Parameter
from repro.optim import Adam
from repro.tensor import Tensor, relu
from repro.training import History, load_checkpoint, save_checkpoint
from repro.training.checkpoint import _CHECKSUM_KEY, _payload_digest


def rewrite_archive(path, mutate):
    """Tamper with an archive *semantically*: edit entries, fix checksum.

    ``mutate`` receives and returns the ``{key: array}`` dict.  The
    payload checksum is recomputed so the rewritten file passes
    integrity verification and exercises the loader's semantic checks
    (byte-level corruption is covered in tests/robustness/).
    """
    with np.load(path) as archive:
        data = {key: archive[key] for key in archive.files}
    data = mutate(data)
    data[_CHECKSUM_KEY] = np.array(_payload_digest(data))
    np.savez(path, **data)


class SmallModel(Module):
    """Linear -> relu -> Linear."""

    def __init__(self, rng):
        super().__init__()
        self.hidden = Linear(4, 8, rng=rng)
        self.out = Linear(8, 2, rng=rng)

    def forward(self, x):
        return self.out(relu(self.hidden(x)))


def small_model():
    return SmallModel(np.random.default_rng(0))


def take_steps(model, optimizer, steps, seed=0):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((16, 4)))
    y = Tensor(rng.standard_normal((16, 2)))
    for _ in range(steps):
        optimizer.zero_grad()
        diff = model(x) - y
        (diff * diff).mean().backward()
        optimizer.step()
    return x, y


class TestRoundTrip:
    def test_weights_restored(self, tmp_path):
        model = small_model()
        optimizer = Adam(model.parameters(), lr=1e-2)
        take_steps(model, optimizer, 5)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, optimizer, epoch=5)

        fresh = small_model()
        fresh_opt = Adam(fresh.parameters(), lr=1e-2)
        history, epoch = load_checkpoint(path, fresh, fresh_opt)
        assert epoch == 5
        assert history is None
        for a, b in zip(model.parameters(), fresh.parameters()):
            np.testing.assert_allclose(a.data, b.data)

    def test_optimizer_moments_restored(self, tmp_path):
        model = small_model()
        optimizer = Adam(model.parameters(), lr=1e-2)
        take_steps(model, optimizer, 5)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, optimizer)

        fresh = small_model()
        fresh_opt = Adam(fresh.parameters(), lr=1e-2)
        load_checkpoint(path, fresh, fresh_opt)
        assert fresh_opt._step_count == optimizer._step_count
        for orig, restored in zip(optimizer._state, fresh_opt._state):
            assert set(orig) == set(restored)
            np.testing.assert_allclose(orig["m"], restored["m"])
            assert orig["t"] == restored["t"]

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        # Train 10 steps straight vs 5 + checkpoint + resume + 5.
        straight = small_model()
        opt_straight = Adam(straight.parameters(), lr=1e-2)
        take_steps(straight, opt_straight, 10)

        first = small_model()
        opt_first = Adam(first.parameters(), lr=1e-2)
        take_steps(first, opt_first, 5)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, first, opt_first)

        resumed = small_model()
        opt_resumed = Adam(resumed.parameters(), lr=1e-2)
        load_checkpoint(path, resumed, opt_resumed)
        take_steps(resumed, opt_resumed, 5)

        for a, b in zip(straight.parameters(), resumed.parameters()):
            np.testing.assert_allclose(a.data, b.data, rtol=1e-10)

    def test_history_round_trip(self, tmp_path):
        model = small_model()
        optimizer = Adam(model.parameters(), lr=1e-2)
        history = History()
        history.record(1.0, 0.5, 2.0)
        history.record(0.8, 0.4, 1.5)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, optimizer, history=history, epoch=2)
        restored, epoch = load_checkpoint(path, model, optimizer)
        assert epoch == 2
        assert restored.val_rmse == [2.0, 1.5]
        assert restored.best_val_rmse == 1.5
        assert restored.best_epoch == 1

    def test_stopped_early_round_trip(self, tmp_path):
        # Regression: stopped_early was dropped on restore, so a resumed
        # run could not tell that early stopping had already triggered.
        model = small_model()
        optimizer = Adam(model.parameters(), lr=1e-2)
        history = History()
        history.record(1.0, 0.5, 2.0)
        history.stopped_early = True
        history.record_telemetry(1.5, 12.0)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, optimizer, history=history)
        restored, _epoch = load_checkpoint(path, model, optimizer)
        assert restored.stopped_early is True
        assert restored.epoch_time == [1.5]
        assert restored.batches_per_sec == [12.0]

    def test_optimizer_param_count_mismatch_raises(self, tmp_path):
        # Regression: an archive covering fewer parameters than the
        # optimizer tracks silently installed empty state dicts,
        # resetting Adam moments on resume.
        model = small_model()
        optimizer = Adam(model.parameters(), lr=1e-2)
        take_steps(model, optimizer, 3)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, optimizer)

        from repro.nn import Parameter

        extra = Parameter(np.zeros(3))
        bigger_opt = Adam(list(model.parameters()) + [extra], lr=1e-2)
        with pytest.raises(ValueError, match="parameter"):
            load_checkpoint(path, model, bigger_opt)

    def test_stepped_archive_without_opt_state_raises(self, tmp_path):
        # A legacy-style archive (no opt/num_states) whose opt/ entries
        # are missing entirely must not silently reset the moments.
        model = small_model()
        optimizer = Adam(model.parameters(), lr=1e-2)
        take_steps(model, optimizer, 3)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, optimizer)
        rewrite_archive(path, lambda data: {
            key: value for key, value in data.items()
            if not key.startswith("opt/")
        })
        with pytest.raises(ValueError, match="optimizer state"):
            load_checkpoint(path, model, optimizer)

    def test_version_mismatch(self, tmp_path):
        model = small_model()
        optimizer = Adam(model.parameters(), lr=1e-2)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, optimizer)

        def bump(data):
            data["format_version"] = np.array(42)
            return data

        rewrite_archive(path, bump)
        with pytest.raises(ValueError):
            load_checkpoint(path, model, optimizer)

    def test_suffixless_path_round_trip(self, tmp_path):
        # Regression: np.savez_compressed("ckpt") silently writes
        # "ckpt.npz" but load_checkpoint("ckpt") then failed to find it.
        model = small_model()
        optimizer = Adam(model.parameters(), lr=1e-2)
        take_steps(model, optimizer, 2)
        written = save_checkpoint(tmp_path / "ckpt", model, optimizer, epoch=2)
        assert str(written).endswith("ckpt.npz")
        assert (tmp_path / "ckpt.npz").exists()

        fresh = small_model()
        fresh_opt = Adam(fresh.parameters(), lr=1e-2)
        _history, epoch = load_checkpoint(tmp_path / "ckpt", fresh, fresh_opt)
        assert epoch == 2
        for a, b in zip(model.parameters(), fresh.parameters()):
            np.testing.assert_allclose(a.data, b.data)

    def test_missing_file_message_names_path(self, tmp_path):
        model = small_model()
        optimizer = Adam(model.parameters(), lr=1e-2)
        with pytest.raises(FileNotFoundError, match="nothing-here"):
            load_checkpoint(tmp_path / "nothing-here", model, optimizer)

    def test_state_dict_isolated_from_inplace_updates(self):
        # The trainer keeps `best_state = model.state_dict()` across
        # later epochs; the in-place optimizer kernels (`out=` ufuncs)
        # must not be able to mutate that snapshot through aliasing.
        model = small_model()
        optimizer = Adam(model.parameters(), lr=1e-1)
        snapshot = model.state_dict()
        before = {name: value.copy() for name, value in snapshot.items()}
        take_steps(model, optimizer, 5)
        for name, value in snapshot.items():
            np.testing.assert_array_equal(value, before[name])
        # And the live parameters really did move.
        after = model.state_dict()
        assert any(not np.array_equal(after[name], before[name])
                   for name in before)

    def test_works_with_musenet(self, tmp_path, tiny_data, tiny_config):
        model = MUSENet(tiny_config)
        optimizer = Adam(model.parameters(), lr=1e-3)
        breakdown, _ = model.training_loss(tiny_data.train.take(range(4)),
                                           rng=np.random.default_rng(0))
        breakdown.total.backward()
        optimizer.step()
        path = tmp_path / "muse.npz"
        save_checkpoint(path, model, optimizer)

        fresh = MUSENet(tiny_config)
        fresh_opt = Adam(fresh.parameters(), lr=1e-3)
        load_checkpoint(path, fresh, fresh_opt)
        np.testing.assert_allclose(fresh.predict(tiny_data.test),
                                   model.predict(tiny_data.test))
