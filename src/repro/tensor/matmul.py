"""Matrix multiplication (with batch broadcasting) and its gradient."""

from __future__ import annotations

import numpy as np

from repro.tensor import tensor as _core
from repro.tensor.tensor import Tensor, as_tensor
from repro.tensor.ops import unbroadcast

__all__ = ["matmul"]


def matmul(a, b):
    """``a @ b`` with numpy's batched-matmul broadcasting rules.

    Both operands must have rank 2 or more: 2-D x 2-D, batched
    (N, m, k) x (k, n) or (N, m, k) x (N, k, n).  A 1-D operand raises
    ``ValueError``; reshape it to a row or column first.
    """
    a = as_tensor(a)
    b = as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(
            f"matmul needs operands of rank >= 2; got shapes {a.shape} "
            f"and {b.shape}")
    data = a.data @ b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate_grad(unbroadcast(
                grad @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            b._accumulate_grad(unbroadcast(
                np.swapaxes(a.data, -1, -2) @ grad, b.shape))

    result = Tensor._from_op(data, (a, b), backward, name="matmul")
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        rec.ufunc(np.matmul, (a.data, b.data), result.data)
    return result
