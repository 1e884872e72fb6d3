"""Tests for the Adam optimizer and gradient clipping."""

import numpy as np
import pytest

from repro import nn, optim
from repro.tensor import Tensor


def quadratic_problem():
    """Minimize ||w - target||^2; returns (param, loss_fn, target)."""
    target = np.array([1.0, -2.0, 3.0])
    w = nn.Parameter(np.zeros(3))

    def loss():
        diff = w - Tensor(target)
        return (diff * diff).sum()

    return w, loss, target


def run_steps(optimizer, loss_fn, steps):
    for _ in range(steps):
        optimizer.zero_grad()
        loss_fn().backward()
        optimizer.step()


class TestOptimizers:
    @pytest.mark.parametrize(
        "make",
        [lambda p: optim.Adam(p, lr=0.2)],
        ids=["adam"],
    )
    def test_converges_on_quadratic(self, make):
        w, loss_fn, target = quadratic_problem()
        run_steps(make([w]), loss_fn, 200)
        np.testing.assert_allclose(w.data, target, atol=1e-2)

    def test_empty_parameters_raises(self):
        with pytest.raises(ValueError):
            optim.Adam([], lr=0.1)

    def test_nonpositive_lr_raises(self):
        w, _loss, _target = quadratic_problem()
        with pytest.raises(ValueError):
            optim.Adam([w], lr=0.0)

    def test_step_skips_gradless_parameters(self):
        w = nn.Parameter(np.ones(2))
        unused = nn.Parameter(np.ones(2))
        opt = optim.Adam([w, unused], lr=0.1)
        (w.sum()).backward()
        opt.step()
        np.testing.assert_allclose(unused.data, 1.0)
        assert not np.allclose(w.data, 1.0)

    def test_weight_decay_shrinks_weights(self):
        w = nn.Parameter(np.ones(3) * 10)
        opt = optim.Adam([w], lr=0.1, weight_decay=0.5)
        # Gradient of this loss is zero everywhere, so only decay acts.
        loss = (w * Tensor(np.zeros(3))).sum()
        loss.backward()
        opt.step()
        assert np.all(w.data < 10.0)

    def test_adam_bias_correction_first_step(self):
        # After one step with gradient g, Adam moves by ~lr * sign(g).
        w = nn.Parameter(np.array([0.0]))
        opt = optim.Adam([w], lr=0.1)
        (w * 3.0).sum().backward()
        opt.step()
        np.testing.assert_allclose(w.data, [-0.1], atol=1e-6)


class TestClipping:
    def test_clip_norm_scales_down(self):
        w = nn.Parameter(np.zeros(4))
        w.grad = np.ones(4) * 10.0
        pre = optim.clip_grad_norm([w], max_norm=1.0)
        np.testing.assert_allclose(pre, 20.0)
        np.testing.assert_allclose(np.linalg.norm(w.grad), 1.0)

    def test_clip_norm_noop_when_small(self):
        w = nn.Parameter(np.zeros(4))
        w.grad = np.full(4, 0.1)
        optim.clip_grad_norm([w], max_norm=10.0)
        np.testing.assert_allclose(w.grad, 0.1)

    def test_clip_skips_gradless(self):
        w = nn.Parameter(np.zeros(3))
        optim.clip_grad_norm([w], 1.0)  # must not raise
