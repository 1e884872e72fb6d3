"""Gradient checks for reductions, shape ops, matmul, and conv."""

import numpy as np
import pytest

from repro import tensor as T
from repro.tensor import Tensor, check_gradients

RNG = np.random.default_rng(7)


def rand(*shape, low=-2.0, high=2.0):
    return Tensor(RNG.uniform(low, high, size=shape))


class TestReductions:
    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), ((0, 2), False)])
    def test_sum(self, axis, keepdims):
        check_gradients(lambda t: T.sum_(t[0], axis=axis, keepdims=keepdims).sum(), [rand(2, 3, 4)])

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (-1, True)])
    def test_mean(self, axis, keepdims):
        check_gradients(lambda t: T.mean(t[0], axis=axis, keepdims=keepdims).sum(), [rand(2, 3, 4)])

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_max(self, axis):
        check_gradients(lambda t: T.max_(t[0], axis=axis).sum(), [rand(3, 5)])

    def test_max_tie_splits_gradient(self):
        x = Tensor([[2.0, 2.0, 1.0]], requires_grad=True)
        T.max_(x, axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5, 0.0]])

    def test_var_matches_numpy(self):
        x = rand(4, 6)
        np.testing.assert_allclose(T.var(x, axis=1).data, x.data.var(axis=1), rtol=1e-10)

    def test_var_grad(self):
        check_gradients(lambda t: T.var(t[0], axis=0).sum(), [rand(4, 3)])

    def test_std_with_eps(self):
        x = Tensor(np.zeros((3, 3)))
        out = T.std(x, axis=1, eps=1e-8)
        assert np.all(np.isfinite(out.data))

    def test_logsumexp_matches_scipy(self):
        from scipy.special import logsumexp as sp_lse

        x = rand(3, 6)
        np.testing.assert_allclose(T.logsumexp(x, axis=1).data, sp_lse(x.data, axis=1), rtol=1e-10)

    def test_logsumexp_grad(self):
        check_gradients(lambda t: T.logsumexp(t[0], axis=1).sum(), [rand(3, 6)])

    def test_logsumexp_stable_for_large_inputs(self):
        x = Tensor(np.array([[1000.0, 1000.0]]))
        out = T.logsumexp(x, axis=1)
        np.testing.assert_allclose(out.data, [1000.0 + np.log(2.0)])


class TestShapeOps:
    def test_reshape_grad(self):
        check_gradients(lambda t: T.reshape(t[0], (6, 2)).tanh().sum(), [rand(3, 4)])

    def test_transpose_grad(self):
        check_gradients(lambda t: T.transpose(t[0], (2, 0, 1)).tanh().sum(), [rand(2, 3, 4)])

    def test_transpose_default_reverses(self):
        x = rand(2, 3, 4)
        assert T.transpose(x).shape == (4, 3, 2)

    def test_swapaxes(self):
        x = rand(2, 3, 4)
        assert T.swapaxes(x, 0, 2).shape == (4, 3, 2)

    def test_flatten(self):
        x = rand(2, 3, 4)
        assert T.flatten(x, start_axis=1).shape == (2, 12)

    def test_concat_grad(self):
        check_gradients(
            lambda t: T.concat([t[0], t[1]], axis=1).tanh().sum(),
            [rand(3, 2), rand(3, 5)],
        )

    def test_stack_grad(self):
        check_gradients(
            lambda t: T.stack([t[0], t[1]], axis=0).tanh().sum(),
            [rand(3, 2), rand(3, 2)],
        )

    def test_split_round_trip(self):
        x = rand(6, 4)
        parts = T.split(x, 3, axis=0)
        assert len(parts) == 3
        np.testing.assert_allclose(np.concatenate([p.data for p in parts]), x.data)

    def test_split_uneven_raises(self):
        with pytest.raises(ValueError):
            T.split(rand(5, 2), 2, axis=0)

    def test_getitem_grad(self):
        check_gradients(lambda t: t[0][1:, ::2].sum(), [rand(4, 6)])

    def test_getitem_integer_array(self):
        x = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        idx = np.array([0, 0, 2])
        out = x[idx]
        out.sum().backward()
        expected = np.zeros((4, 3))
        expected[0] = 2.0
        expected[2] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_broadcast_to_grad(self):
        check_gradients(lambda t: T.broadcast_to(t[0], (4, 3, 2)).tanh().sum(), [rand(3, 2)])


class TestMatmul:
    def test_2d_grad(self):
        check_gradients(lambda t: (t[0] @ t[1]).tanh().sum(), [rand(3, 4), rand(4, 5)])

    def test_batched_grad(self):
        check_gradients(lambda t: (t[0] @ t[1]).tanh().sum(), [rand(2, 3, 4), rand(2, 4, 5)])

    def test_batched_broadcast_rhs(self):
        check_gradients(lambda t: (t[0] @ t[1]).tanh().sum(), [rand(2, 3, 4), rand(4, 5)])

    def test_vector_operand_raises(self):
        # The message names both shapes, whichever side is the vector.
        for lhs, rhs in (((3, 4), (4,)), ((4,), (4, 5))):
            with pytest.raises(ValueError, match="rank >= 2") as info:
                rand(*lhs) @ rand(*rhs)
            assert f"{lhs} and {rhs}" in str(info.value)


class TestConv:
    def test_conv2d_matches_scipy(self):
        from scipy.signal import correlate2d

        x = rand(1, 1, 6, 6)
        w = rand(1, 1, 3, 3)
        out = T.conv2d(x, w)
        expected = correlate2d(x.data[0, 0], w.data[0, 0], mode="valid")
        np.testing.assert_allclose(out.data[0, 0], expected, rtol=1e-10)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), ((1, 2), (2, 1))])
    def test_conv2d_grad(self, stride, padding):
        check_gradients(
            lambda t: T.conv2d(t[0], t[1], t[2], stride=stride, padding=padding).tanh().sum(),
            [rand(2, 3, 5, 6), rand(4, 3, 3, 3), rand(4)],
        )

    def test_conv2d_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            T.conv2d(rand(1, 2, 4, 4), rand(1, 3, 3, 3))

    def test_conv2d_output_shape(self):
        out = T.conv2d(rand(2, 3, 10, 20), rand(8, 3, 3, 3), padding=1)
        assert out.shape == (2, 8, 10, 20)

    def test_global_avg_pool(self):
        x = rand(2, 3, 4, 5)
        out = T.global_avg_pool2d(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, x.data.mean(axis=(2, 3)))
