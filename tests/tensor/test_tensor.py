"""Tests for the core Tensor graph machinery."""

import numpy as np
import pytest

from repro.tensor import Tensor, as_tensor, no_grad, is_grad_enabled


class TestConstruction:
    def test_from_list_uses_default_dtype(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float64

    def test_preserves_float32(self):
        t = Tensor(np.zeros(3, dtype=np.float32))
        assert t.dtype == np.float32

    def test_from_tensor_shares_data(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert b.data is a.data

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.ndim == 3
        assert t.size == 24

    def test_repr_mentions_grad(self):
        t = Tensor([1.0], requires_grad=True, name="w")
        assert "requires_grad" in repr(t)
        assert "w" in repr(t)

    def test_as_tensor_passthrough(self):
        a = Tensor([1.0])
        assert as_tensor(a) is a

    def test_len(self):
        assert len(Tensor(np.zeros((5, 2)))) == 5


class TestBackward:
    def test_scalar_backward_defaults_to_one(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x
        y.backward()
        assert np.isclose(x.grad, 6.0)

    def test_nonscalar_backward_requires_grad_arg(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2
        with pytest.raises(RuntimeError):
            y.backward()

    def test_backward_on_detached_raises(self):
        x = Tensor([1.0])
        with pytest.raises(RuntimeError):
            x.backward()

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(2.0, requires_grad=True)
        (x * 3).backward()
        (x * 3).backward()
        assert np.isclose(x.grad, 6.0)

    def test_zero_grad(self):
        x = Tensor(2.0, requires_grad=True)
        (x * 3).backward()
        x.zero_grad()
        assert x.grad is None

    def test_zero_grad_keeps_buffer_for_the_next_deposit(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (x * 3).sum().backward()
        buffer = x.grad
        x.zero_grad()
        assert x.grad is None
        (x * 5).sum().backward()
        assert x.grad is buffer  # same array object, no reallocation
        np.testing.assert_array_equal(x.grad, [5.0, 5.0])  # overwritten
        (x * 2).sum().backward()
        np.testing.assert_array_equal(x.grad, [7.0, 7.0])  # then added

    def test_kept_buffer_of_another_dtype_is_replaced(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (x * 3).sum().backward()
        buffer = x.grad
        x.zero_grad()
        x.data = x.data.astype(np.float32)
        (x * 3).sum().backward()
        assert x.grad is not buffer
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(buffer, [3.0, 3.0])

    def test_diamond_graph_accumulates_once_per_path(self):
        # y = x*x + x*x: gradient should be 4x, not 2x.
        x = Tensor(3.0, requires_grad=True)
        a = x * x
        y = a + a
        y.backward()
        assert np.isclose(x.grad, 12.0)

    def test_shared_subexpression(self):
        x = Tensor(2.0, requires_grad=True)
        s = x * 3
        y = s * s  # y = 9 x^2, dy/dx = 18x = 36
        y.backward()
        assert np.isclose(x.grad, 36.0)

    def test_deep_chain_does_not_recurse(self):
        # Deeper than Python's default recursion limit.
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(2000):
            y = y * 1.0
        y.backward()
        assert np.isclose(x.grad, 1.0)

    def test_gradient_shape_mismatch_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            x._accumulate_grad(np.zeros((3,)))


class TestNoGrad:
    def test_disables_tracking(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            b = a * 2
        assert not b.requires_grad

    def test_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_restores_on_exception(self):
        try:
            with no_grad():
                raise ValueError
        except ValueError:
            pass
        assert is_grad_enabled()

    def test_new_tensor_inside_no_grad_is_detached(self):
        with no_grad():
            t = Tensor([1.0], requires_grad=True)
        assert not t.requires_grad


class TestDetachCopy:
    def test_detach_shares_data(self):
        a = Tensor([1.0], requires_grad=True)
        d = a.detach()
        assert d.data is a.data
        assert not d.requires_grad

    def test_copy_is_independent(self):
        a = Tensor([1.0])
        c = a.copy()
        c.data[0] = 5.0
        assert a.data[0] == 1.0

    def test_detach_cuts_graph(self):
        x = Tensor(2.0, requires_grad=True)
        y = (x * 3).detach() * x
        y.backward()
        assert np.isclose(x.grad, 6.0)  # only through the second factor

    def test_item_and_numpy(self):
        t = Tensor(7.5)
        assert t.item() == 7.5
        assert isinstance(t.numpy(), np.ndarray)

    def test_astype(self):
        t = Tensor([1.0]).astype(np.float32)
        assert t.dtype == np.float32


class TestForkedChildHooks:
    def test_clear_hooks_in_child_uninstalls_every_hook(self):
        from repro.tensor import tensor as core

        fields = core._Hooks.__slots__
        original = core._THREAD.hooks
        try:
            with core._installed(**dict.fromkeys(fields, object())):
                core._clear_hooks_in_child()
                cleared = core._THREAD.hooks
        finally:
            core._THREAD.hooks = original
        assert {name: getattr(cleared, name) for name in fields} == {
            "grad_enabled": True, "profiler": None, "anomaly": None,
            "trace": None, "module_call": None, "recorder": None}
