"""Trainer precision policy: ``TrainConfig(dtype=...)`` end to end."""

import numpy as np
import pytest

from repro.core import MUSENet
from repro.optim import Adam
from repro.training import TrainConfig, Trainer, load_checkpoint, save_checkpoint


def _tiny_train_config(**overrides):
    defaults = dict(epochs=1, batch_size=8, lr=1e-3, seed=0)
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestTrainerDtype:
    def test_config_dtype_casts_model_before_optimizer(self, tiny_config):
        model = MUSENet(tiny_config)
        trainer = Trainer(model, _tiny_train_config(dtype="float32"))
        assert trainer.dtype == np.float32
        for param in model.parameters():
            assert param.data.dtype == np.float32

    def test_non_float_dtype_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            Trainer(MUSENet(tiny_config), _tiny_train_config(dtype="int64"))

    def test_default_keeps_float64(self, tiny_config):
        model = MUSENet(tiny_config)
        trainer = Trainer(model, _tiny_train_config())
        assert trainer.dtype is None
        for param in model.parameters():
            assert param.data.dtype == np.float64

    def test_fit_and_predict_stay_float32(self, tiny_data, tiny_config):
        model = MUSENet(tiny_config)
        trainer = Trainer(model, _tiny_train_config(dtype="float32"))
        trainer.fit(tiny_data)
        for param in model.parameters():
            assert param.data.dtype == np.float32
        # Optimizer slot variables follow the parameter dtype.
        for state in trainer.optimizer._state:
            for value in state.values():
                if isinstance(value, np.ndarray):
                    assert value.dtype == np.float32
        prediction = trainer.predict_scaled(tiny_data.test)
        assert prediction.dtype == np.float32
        report = trainer.evaluate(tiny_data)
        assert np.isfinite(report.outflow_rmse)

    def test_fit_restores_ambient_policy(self, tiny_data, tiny_config):
        from repro.tensor import get_default_dtype

        model = MUSENet(tiny_config)
        Trainer(model, _tiny_train_config(dtype="float32")).fit(tiny_data)
        assert get_default_dtype() == np.float64


class TestCheckpointDtype:
    def test_checkpoint_records_and_restores_dtype(self, tiny_config, tmp_path):
        model = MUSENet(tiny_config)
        trainer = Trainer(model, _tiny_train_config(dtype="float32"))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, trainer.optimizer)
        with np.load(path) as archive:
            assert str(archive["model_dtype"]) == "float32"

        # A float64 model restored from a float32 checkpoint is recast.
        fresh = MUSENet(tiny_config)
        assert fresh.parameters()[0].data.dtype == np.float64
        load_checkpoint(path, fresh, Adam(fresh.parameters(), lr=1e-3))
        for param in fresh.parameters():
            assert param.data.dtype == np.float32
