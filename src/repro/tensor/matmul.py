"""Matrix multiplication (with batch broadcasting) and its gradient."""

from __future__ import annotations

import numpy as np

from repro.tensor import tensor as _core
from repro.tensor.tensor import Tensor, as_tensor
from repro.tensor.ops import unbroadcast

__all__ = ["matmul"]


def matmul(a, b):
    """``a @ b`` with numpy's batched-matmul broadcasting rules.

    Supports the common cases used by the library: 2-D x 2-D,
    batched (N, m, k) x (k, n) or (N, m, k) x (N, k, n), and 1-D
    vectors on either side (treated as rows/columns like numpy).
    """
    a = as_tensor(a)
    b = as_tensor(b)
    data = a.data @ b.data

    a_is_vec = a.ndim == 1
    b_is_vec = b.ndim == 1

    def backward(grad):
        g = grad
        a_d, b_d = a.data, b.data
        # Promote vectors so every case reduces to batched matmul.
        if a_is_vec:
            a_d = a_d[None, :]
        if b_is_vec:
            b_d = b_d[:, None]
        if a_is_vec and b_is_vec:
            g = np.asarray(g).reshape(1, 1)
        elif a_is_vec:
            g = np.expand_dims(g, -2)
        elif b_is_vec:
            g = np.expand_dims(g, -1)

        if a.requires_grad:
            grad_a = g @ np.swapaxes(b_d, -1, -2)
            if a_is_vec:
                grad_a = grad_a.reshape(a.shape) if grad_a.ndim <= 2 else \
                    grad_a.sum(axis=tuple(range(grad_a.ndim - 2))).reshape(a.shape)
            else:
                grad_a = unbroadcast(grad_a, a.shape)
            a._accumulate_grad(grad_a)
        if b.requires_grad:
            grad_b = np.swapaxes(a_d, -1, -2) @ g
            if b_is_vec:
                grad_b = grad_b.reshape(b.shape) if grad_b.ndim <= 2 else \
                    grad_b.sum(axis=tuple(range(grad_b.ndim - 2))).reshape(b.shape)
            else:
                grad_b = unbroadcast(grad_b, b.shape)
            b._accumulate_grad(grad_b)

    result = Tensor._from_op(data, (a, b), backward, name="matmul")
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        ad, bd, od = a.data, b.data, result.data
        if a.ndim >= 2 and b.ndim >= 2:
            rec.ufunc(np.matmul, (ad, bd), od)
        else:
            # Vector operands collapse dims; replay through assignment
            # (rare outside of 2-D/batched paths).
            def refresh():
                od[...] = ad @ bd

            rec.run(refresh, reads=(ad, bd), writes=(od,))
    return result
