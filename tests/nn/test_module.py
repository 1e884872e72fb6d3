"""Tests for Module registration, modes, and serialization."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Linear, Module, ModuleList, Parameter


class Tiny(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(3, 4, rng=np.random.default_rng(1))
        self.fc2 = Linear(4, 2, rng=np.random.default_rng(2))
        self.scale = Parameter(np.ones(1))

    def forward(self, x):
        return self.fc2(self.fc1(x).relu()) * self.scale


class TestRegistration:
    def test_named_parameters_include_children(self):
        names = dict(Tiny().named_parameters())
        assert "fc1.weight" in names
        assert "fc2.bias" in names
        assert "scale" in names

    def test_parameters_count(self):
        model = Tiny()
        assert len(model.parameters()) == 5
        assert model.num_parameters() == 3 * 4 + 4 + 4 * 2 + 2 + 1

    def test_shared_parameter_deduplicated(self):
        model = Tiny()
        model.fc2.weight = model.fc1.weight  # tie weights (shapes aside)
        params = model.parameters()
        assert len(params) == len({id(p) for p in params})

    def test_modules_traversal(self):
        model = Tiny()
        kinds = [type(m).__name__ for m in model.modules()]
        assert kinds.count("Linear") == 2

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestModes:
    def test_train_eval_propagates(self):
        model = ModuleList([Linear(2, 2), Tiny()])
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())


class TestStateDict:
    def test_round_trip(self):
        a, b = Tiny(), Tiny()
        b.fc1.weight.data[...] = 0.0
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(b.fc1.weight.data, a.fc1.weight.data)

    def test_missing_key_raises(self):
        model = Tiny()
        state = model.state_dict()
        del state["scale"]
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        model = Tiny()
        state = model.state_dict()
        state["scale"] = np.ones(3)
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_save_load_file(self, tmp_path):
        a, b = Tiny(), Tiny()
        path = tmp_path / "weights.npz"
        a.save(path)
        b.load(path)
        np.testing.assert_allclose(b.fc2.weight.data, a.fc2.weight.data)

    def test_zero_grad(self):
        model = Tiny()
        x = nn.Parameter(np.ones((2, 3)))
        model(x).sum().backward()
        assert model.fc1.weight.grad is not None
        model.zero_grad()
        assert model.fc1.weight.grad is None
