"""Gradient checks and behaviour tests for elementwise ops."""

import numpy as np
import pytest

from repro import tensor as T
from repro.tensor import Tensor, check_gradients

RNG = np.random.default_rng(42)


def rand(*shape, low=-2.0, high=2.0):
    return Tensor(RNG.uniform(low, high, size=shape))


class TestBinaryOps:
    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul])
    def test_grad_same_shape(self, op):
        check_gradients(lambda t: op(t[0], t[1]).sum(), [rand(3, 4), rand(3, 4)])

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul])
    def test_grad_broadcast_row(self, op):
        check_gradients(lambda t: op(t[0], t[1]).sum(), [rand(3, 4), rand(4)])

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul])
    def test_grad_broadcast_scalar(self, op):
        check_gradients(lambda t: op(t[0], t[1]).sum(), [rand(3, 4), rand()])

    def test_div_grad(self):
        check_gradients(lambda t: T.div(t[0], t[1]).sum(), [rand(3, 4), rand(3, 4, low=0.5, high=2.0)])

    def test_div_broadcast_column(self):
        check_gradients(lambda t: T.div(t[0], t[1]).sum(), [rand(3, 4), rand(3, 1, low=0.5, high=2.0)])

    def test_python_scalar_operands(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = (2 * x + 1 - x / 2).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [1.5, 1.5])

    def test_reverse_operators(self):
        x = Tensor([2.0])
        np.testing.assert_allclose((3 - x).data, [1.0])
        np.testing.assert_allclose((8 / x).data, [4.0])
        np.testing.assert_allclose((3 + x).data, [5.0])
        np.testing.assert_allclose((3 * x).data, [6.0])


class TestUnaryOps:
    @pytest.mark.parametrize(
        "op",
        [T.neg, T.exp, T.tanh, T.sigmoid],
    )
    def test_grad(self, op):
        check_gradients(lambda t: op(t[0]).sum(), [rand(3, 4)])

    def test_log_grad(self):
        check_gradients(lambda t: T.log(t[0]).sum(), [rand(3, 4, low=0.5, high=3.0)])

    def test_sqrt_grad(self):
        check_gradients(lambda t: T.sqrt(t[0]).sum(), [rand(3, 4, low=0.5, high=3.0)])

    def test_pow_grad(self):
        check_gradients(lambda t: T.pow_(t[0], 3).sum(), [rand(3, 4)])

    def test_pow_tensor_exponent_raises(self):
        with pytest.raises(TypeError):
            T.pow_(rand(2), rand(2))

    def test_relu_grad_masks_negative(self):
        x = Tensor([-1.0, 2.0], requires_grad=True)
        T.relu(x).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0])

    def test_sigmoid_extreme_values_stable(self):
        x = Tensor([-500.0, 500.0])
        out = T.sigmoid(x)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)


class TestUnbroadcast:
    def test_prepended_axes(self):
        grad = np.ones((2, 3, 4))
        out = T.unbroadcast(grad, (3, 4))
        np.testing.assert_allclose(out, np.full((3, 4), 2.0))

    def test_stretched_axes(self):
        grad = np.ones((3, 4))
        out = T.unbroadcast(grad, (3, 1))
        np.testing.assert_allclose(out, np.full((3, 1), 4.0))

    def test_identity(self):
        grad = np.ones((3, 4))
        assert T.unbroadcast(grad, (3, 4)) is grad

    def test_scalar_target(self):
        grad = np.ones((2, 2))
        out = T.unbroadcast(grad, ())
        assert out == 4.0
