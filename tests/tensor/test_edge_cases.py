"""Edge-case tests for the autodiff engine."""

import numpy as np
import pytest

from repro import tensor as T
from repro.tensor import Tensor, check_gradients


class TestScalarsAndEmpties:
    def test_zero_dim_tensor_ops(self):
        x = Tensor(2.0, requires_grad=True)
        y = (x * x + x).exp().log()  # identity composition: y = x^2 + x
        y.backward()
        np.testing.assert_allclose(x.grad, 5.0)  # 2x + 1 at x = 2

    def test_size_one_axes(self):
        check_gradients(
            lambda t: (t[0] * t[1]).sum(),
            [Tensor(np.random.default_rng(0).standard_normal((1, 3, 1))),
             Tensor(np.random.default_rng(1).standard_normal((4, 1, 2)))],
        )

    def test_sum_of_empty_axis_slice(self):
        x = Tensor(np.zeros((3, 0)))
        assert T.sum_(x).item() == 0.0

    def test_concat_single_tensor(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        out = T.concat([x], axis=0)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, 1.0)


class TestDtypePropagation:
    def test_float32_stays_float32(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32))
        y = Tensor(np.ones((2, 2), dtype=np.float32))
        assert (x @ y).dtype == np.float32
        assert T.tanh(x).dtype == np.float32

    def test_mixed_promotes(self):
        x = Tensor(np.ones(2, dtype=np.float32))
        y = Tensor(np.ones(2, dtype=np.float64))
        assert (x + y).dtype == np.float64

    def test_int_input_converted(self):
        assert Tensor(np.arange(3)).dtype == np.float64


class TestGraphReuse:
    def test_same_tensor_used_many_times(self):
        x = Tensor(2.0, requires_grad=True)
        terms = [x * float(i) for i in range(1, 6)]
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        total.backward()
        np.testing.assert_allclose(x.grad, 15.0)

    def test_backward_twice_through_fresh_graphs(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2).sum().backward()
        first = x.grad.copy()
        x.zero_grad()
        (x * 3).sum().backward()
        np.testing.assert_allclose(first, 2.0)
        np.testing.assert_allclose(x.grad, 3.0)

    def test_grad_not_tracked_through_grad(self):
        # Gradients are plain arrays, never Tensors with history.
        x = Tensor(np.ones(3), requires_grad=True)
        (x * x).sum().backward()
        assert isinstance(x.grad, np.ndarray)


class TestNumericalStability:
    def test_softmax_composition_with_tiny_values(self):
        from repro.nn import softmax

        x = Tensor(np.full((2, 4), -1e6))
        out = softmax(x)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0)

    def test_division_gradient_large_denominator(self):
        check_gradients(
            lambda t: (t[0] / 1e8).sum() * 1e8,
            [Tensor(np.random.default_rng(0).standard_normal(4))],
        )


class TestConvEdges:
    def test_kernel_equals_input_size(self):
        rng = np.random.default_rng(0)
        check_gradients(
            lambda t: T.conv2d(t[0], t[1]).sum(),
            [Tensor(rng.standard_normal((1, 2, 3, 3))),
             Tensor(rng.standard_normal((4, 2, 3, 3)))],
        )

    def test_1x1_kernel_is_channel_mix(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 3, 4, 4))
        w = rng.standard_normal((2, 3, 1, 1))
        out = T.conv2d(Tensor(x), Tensor(w))
        expected = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0])
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_asymmetric_input(self):
        rng = np.random.default_rng(0)
        out = T.conv2d(Tensor(rng.standard_normal((2, 1, 3, 9))),
                       Tensor(rng.standard_normal((1, 1, 3, 3))), padding=1)
        assert out.shape == (2, 1, 3, 9)
