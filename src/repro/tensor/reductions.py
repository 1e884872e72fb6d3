"""Reduction operations (sum, mean, max, ...) with gradients."""

from __future__ import annotations

import numpy as np

from repro.tensor import tensor as _core
from repro.tensor.tensor import Tensor, as_tensor

__all__ = ["sum_", "mean", "max_", "min_", "var", "std", "logsumexp"]


def _normalize_axis(axis, ndim):
    """Return ``axis`` as a sorted tuple of non-negative ints (or None)."""
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(sorted(a % ndim for a in axis))


def _expand_to_input(grad, input_shape, axis, keepdims):
    """Reshape/broadcast an upstream reduction gradient back to the input."""
    if axis is None:
        return np.broadcast_to(grad, input_shape)
    if not keepdims:
        shape = list(input_shape)
        for a in axis:
            shape[a] = 1
        grad = grad.reshape(shape)
    return np.broadcast_to(grad, input_shape)


def sum_(a, axis=None, keepdims=False):
    """Sum over ``axis`` (all axes when None)."""
    a = as_tensor(a)
    axis = _normalize_axis(axis, a.ndim)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad):
        a._accumulate_grad(_expand_to_input(grad, a.shape, axis, keepdims))

    result = Tensor._from_op(data, (a,), backward, name="sum")
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        rec.ufunc(np.sum, (a.data,), result.data, axis=axis, keepdims=keepdims)
    return result


def mean(a, axis=None, keepdims=False):
    """Mean over ``axis`` (all axes when None)."""
    a = as_tensor(a)
    axis = _normalize_axis(axis, a.ndim)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.size
    else:
        count = int(np.prod([a.shape[i] for i in axis]))

    def backward(grad):
        a._accumulate_grad(_expand_to_input(grad, a.shape, axis, keepdims) / count)

    result = Tensor._from_op(data, (a,), backward, name="mean")
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        rec.ufunc(np.mean, (a.data,), result.data, axis=axis, keepdims=keepdims)
    return result


def _extreme(a, axis, keepdims, np_fn, name):
    """Shared implementation of max/min.

    When several elements tie for the extreme, the gradient is split
    evenly among them, which keeps the op consistent under gradient
    checking.
    """
    a = as_tensor(a)
    axis = _normalize_axis(axis, a.ndim)
    data = np_fn(a.data, axis=axis, keepdims=keepdims)
    expanded = _expand_to_input(data, a.shape, axis, keepdims)
    mask = (a.data == expanded).astype(a.data.dtype)
    # counts is always a 0-d/keepdims array (never a python scalar) so a
    # compiled plan can refresh it in place.
    counts = mask.sum(axis=axis, keepdims=True) if axis is not None \
        else np.asarray(mask.sum())

    def backward(grad):
        g = _expand_to_input(grad, a.shape, axis, keepdims)
        c = _expand_to_input(np.asarray(counts), a.shape, None, True) if axis is None \
            else np.broadcast_to(counts, a.shape)
        a._accumulate_grad(g * mask / c)

    result = Tensor._from_op(data, (a,), backward, name=name)
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        ad, od = a.data, result.data

        def refresh():
            np_fn(ad, axis=axis, keepdims=keepdims, out=od)
            # Re-expand from the live output (``expanded`` may wrap a
            # scalar snapshot when the forward reduced to 0-d).
            mask[...] = ad == _expand_to_input(od, ad.shape, axis, keepdims)
            if axis is not None:
                counts[...] = mask.sum(axis=axis, keepdims=True)
            else:
                counts[...] = mask.sum()

        rec.run(refresh, reads=(ad,), writes=(od,))
    return result


def max_(a, axis=None, keepdims=False):
    """Maximum over ``axis``."""
    return _extreme(a, axis, keepdims, np.max, "max")


def min_(a, axis=None, keepdims=False):
    """Minimum over ``axis``."""
    return _extreme(a, axis, keepdims, np.min, "min")


def var(a, axis=None, keepdims=False, ddof=0):
    """Variance, composed from differentiable primitives."""
    a = as_tensor(a)
    mu = mean(a, axis=axis, keepdims=True)
    centered = a - mu
    sq = centered * centered
    axis_t = _normalize_axis(axis, a.ndim)
    if axis_t is None:
        count = a.size
    else:
        count = int(np.prod([a.shape[i] for i in axis_t]))
    total = sum_(sq, axis=axis, keepdims=keepdims)
    return total * (1.0 / max(count - ddof, 1))


def std(a, axis=None, keepdims=False, eps=0.0):
    """Standard deviation; ``eps`` is added under the square root."""
    from repro.tensor.ops import sqrt

    return sqrt(var(a, axis=axis, keepdims=keepdims) + eps)


def logsumexp(a, axis=None, keepdims=False):
    """Numerically stable ``log(sum(exp(a)))`` along ``axis``."""
    from repro.tensor.ops import exp, log

    a = as_tensor(a)
    axnorm = _normalize_axis(axis, a.ndim)
    shift = Tensor(a.data.max(axis=axnorm, keepdims=True))
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        # ``shift`` is a data-dependent *leaf* (no _from_op call), so a
        # compiled plan must refresh it explicitly before the ops below.
        ad, sd = a.data, shift.data

        def refresh_shift():
            np.max(ad, axis=axnorm, keepdims=True, out=sd)

        rec.leaf(refresh_shift, reads=(ad,), writes=(sd,))
    out = log(sum_(exp(a - shift), axis=axis, keepdims=True)) + shift
    if keepdims or axis is None and out.size == 1:
        if not keepdims and axis is None:
            return out.reshape(())
        return out
    axes = _normalize_axis(axis, a.ndim)
    new_shape = tuple(dim for i, dim in enumerate(out.shape) if i not in axes)
    return out.reshape(new_shape)
