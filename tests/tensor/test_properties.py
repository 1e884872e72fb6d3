"""Hypothesis property tests for autodiff invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import tensor as T
from repro.tensor import Tensor

FLOATS = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5),
    elements=st.floats(-10.0, 10.0, allow_nan=False),
)


@given(FLOATS)
@settings(max_examples=50, deadline=None)
def test_sum_gradient_is_ones(arr):
    x = Tensor(arr, requires_grad=True)
    x.sum().backward()
    np.testing.assert_allclose(x.grad, np.ones_like(arr))


@given(FLOATS)
@settings(max_examples=50, deadline=None)
def test_mean_gradient_is_uniform(arr):
    x = Tensor(arr, requires_grad=True)
    x.mean().backward()
    np.testing.assert_allclose(x.grad, np.full_like(arr, 1.0 / arr.size))


@given(FLOATS)
@settings(max_examples=50, deadline=None)
def test_linearity_of_gradients(arr):
    # grad of (a*f + b*g) equals a*grad(f) + b*grad(g).
    x1 = Tensor(arr, requires_grad=True)
    (x1.tanh().sum() * 2.0 + x1.sigmoid().sum() * 3.0).backward()

    xa = Tensor(arr, requires_grad=True)
    xa.tanh().sum().backward()
    xb = Tensor(arr, requires_grad=True)
    xb.sigmoid().sum().backward()

    np.testing.assert_allclose(x1.grad, 2.0 * xa.grad + 3.0 * xb.grad, rtol=1e-9, atol=1e-12)


@given(FLOATS)
@settings(max_examples=50, deadline=None)
def test_reshape_round_trip_gradient(arr):
    x = Tensor(arr, requires_grad=True)
    T.reshape(T.reshape(x, (-1,)), arr.shape).tanh().sum().backward()

    y = Tensor(arr, requires_grad=True)
    y.tanh().sum().backward()
    np.testing.assert_allclose(x.grad, y.grad)


@given(FLOATS)
@settings(max_examples=50, deadline=None)
def test_add_commutes(arr):
    x = Tensor(arr)
    y = Tensor(arr[::-1].copy() if arr.ndim == 1 else arr)
    np.testing.assert_allclose(T.add(x, y).data, T.add(y, x).data)


@given(FLOATS)
@settings(max_examples=50, deadline=None)
def test_exp_log_inverse(arr):
    x = Tensor(np.abs(arr) + 0.5)
    np.testing.assert_allclose(T.log(T.exp(x)).data, x.data, rtol=1e-9)


@given(FLOATS)
@settings(max_examples=50, deadline=None)
def test_relu_idempotent(arr):
    x = Tensor(arr)
    once = T.relu(x)
    twice = T.relu(once)
    np.testing.assert_allclose(once.data, twice.data)


@given(FLOATS)
@settings(max_examples=50, deadline=None)
def test_sigmoid_bounded(arr):
    out = T.sigmoid(Tensor(arr)).data
    assert np.all(out >= 0.0)
    assert np.all(out <= 1.0)


@given(FLOATS)
@settings(max_examples=50, deadline=None)
def test_max_ge_mean_ge_min(arr):
    x = Tensor(arr)
    assert T.max_(x).item() >= T.mean(x).item() - 1e-12
    assert T.mean(x).item() >= -T.max_(-x).item() - 1e-12


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)),
        elements=st.floats(-5.0, 5.0, allow_nan=False),
    )
)
@settings(max_examples=30, deadline=None)
def test_matmul_associativity_with_identity(arr):
    x = Tensor(arr)
    eye = Tensor(np.eye(arr.shape[-1]))
    np.testing.assert_allclose((x @ eye).data, arr, atol=1e-12)


@given(FLOATS, st.integers(0, 10))
@settings(max_examples=40, deadline=None)
def test_no_grad_matches_forward(arr, seed):
    x = Tensor(arr, requires_grad=True)
    tracked = x.tanh().sum().item()
    with T.no_grad():
        untracked = x.tanh().sum().item()
    assert tracked == untracked
