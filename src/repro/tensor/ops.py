"""Elementwise and broadcasting operations with gradients.

Every function takes tensors (or values coercible to tensors), computes
the forward result with numpy, and registers a backward closure that
deposits gradients into the inputs.  Broadcasting is handled by
:func:`unbroadcast`, which sums gradients over the broadcast axes so
each input receives a gradient of its own shape.

When a :mod:`repro.compile` recorder is installed on the calling
thread (the ``recorder`` field of ``tensor._THREAD.hooks``) each op
additionally registers a *refresh kernel* describing how to recompute
its output buffer in place: either a ``ufunc`` spec (fusable into an
``out=``-dispatched chain) or a small closure for ops with auxiliary
state (masks, scales).  Ops on other threads register nothing.
Backward closures read their captured arrays — which the refresh
kernels update in place — so one recorded step can be replayed against
new inputs without rebuilding the graph.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import tensor as _core
from repro.tensor.tensor import Tensor, as_tensor

__all__ = [
    "unbroadcast",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "pow_",
    "exp",
    "log",
    "sqrt",
    "abs_",
    "tanh",
    "sigmoid",
    "relu",
    "leaky_relu",
    "softplus",
    "clip",
    "maximum",
    "minimum",
    "where",
]


def unbroadcast(grad, shape):
    """Reduce ``grad`` to ``shape`` by summing over broadcast axes.

    Numpy broadcasting either prepends axes or stretches size-1 axes;
    the gradient of a broadcast is the sum over exactly those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum away prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched size-1 axes.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _coerce_operands(a, b):
    """Wrap a binary op's operands, keeping constants in the graph dtype.

    A weakly-typed operand (python scalar, list — anything that is not
    already a tensor or an explicit numpy array) adopts the other
    operand's floating dtype, so ``loss * 0.5`` on a float32 graph stays
    float32 instead of silently upcasting through a float64 constant.
    """
    if isinstance(a, Tensor):
        return a, as_tensor(b, dtype=a.dtype)
    if isinstance(b, Tensor):
        return as_tensor(a, dtype=b.dtype), b
    a = as_tensor(a)
    return a, as_tensor(b, dtype=a.dtype)


def _binary(a, b, forward, grad_a, grad_b, name):
    """Build a broadcasting binary op.

    ``grad_a``/``grad_b`` map the upstream gradient to the raw (still
    broadcast-shaped) gradient of each input; unbroadcasting to the
    input shapes happens here so individual ops don't repeat it.
    """
    a, b = _coerce_operands(a, b)
    data = forward(a.data, b.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate_grad(unbroadcast(grad_a(grad), a.shape))
        if b.requires_grad:
            b._accumulate_grad(unbroadcast(grad_b(grad), b.shape))

    return Tensor._from_op(data, (a, b), backward, name=name)


def _binary_ufunc(a, b, fn, grad_a, grad_b, name):
    """A :func:`_binary` whose forward is a plain ufunc: fusable refresh."""
    a, b = _coerce_operands(a, b)
    result = _binary(a, b, fn, grad_a, grad_b, name)
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        rec.ufunc(fn, (a.data, b.data), result.data)
    return result


def add(a, b):
    """Elementwise ``a + b`` with broadcasting."""
    return _binary_ufunc(a, b, np.add, lambda g: g, lambda g: g, "add")


def sub(a, b):
    """Elementwise ``a - b`` with broadcasting."""
    return _binary_ufunc(a, b, np.subtract, lambda g: g, lambda g: -g, "sub")


def mul(a, b):
    """Elementwise ``a * b`` with broadcasting."""
    a, b = _coerce_operands(a, b)
    return _binary_ufunc(a, b, np.multiply, lambda g: g * b.data, lambda g: g * a.data, "mul")


def div(a, b):
    """Elementwise ``a / b`` with broadcasting."""
    a, b = _coerce_operands(a, b)
    return _binary_ufunc(
        a,
        b,
        np.divide,
        lambda g: g / b.data,
        lambda g: -g * a.data / (b.data * b.data),
        "div",
    )


def maximum(a, b):
    """Elementwise maximum; gradient flows to the larger input.

    Ties send the full gradient to ``a`` (matching ``np.maximum``'s
    choice of the first argument), keeping the op's gradient well
    defined under gradient checking.
    """
    a, b = _coerce_operands(a, b)
    mask = a.data >= b.data
    result = _binary(
        a, b, np.maximum, lambda g: g * mask, lambda g: g * (~mask), "maximum"
    )
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        ad, bd, od = a.data, b.data, result.data

        def refresh():
            np.greater_equal(ad, bd, out=mask)
            np.maximum(ad, bd, out=od)

        rec.run(refresh, reads=(ad, bd), writes=(od,))
    return result


def minimum(a, b):
    """Elementwise minimum; gradient flows to the smaller input."""
    a, b = _coerce_operands(a, b)
    mask = a.data <= b.data
    result = _binary(
        a, b, np.minimum, lambda g: g * mask, lambda g: g * (~mask), "minimum"
    )
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        ad, bd, od = a.data, b.data, result.data

        def refresh():
            np.less_equal(ad, bd, out=mask)
            np.minimum(ad, bd, out=od)

        rec.run(refresh, reads=(ad, bd), writes=(od,))
    return result


def _unary(a, data, grad_fn, name):
    a = as_tensor(a)

    def backward(grad):
        a._accumulate_grad(grad_fn(grad))

    return Tensor._from_op(data, (a,), backward, name=name)


def _unary_ufunc(a, fn, grad_fn, name):
    """A :func:`_unary` whose forward is a plain ufunc: fusable refresh."""
    a = as_tensor(a)
    result = _unary(a, fn(a.data), grad_fn, name)
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        rec.ufunc(fn, (a.data,), result.data)
    return result


def neg(a):
    """Elementwise negation."""
    return _unary_ufunc(a, np.negative, lambda g: -g, "neg")


def pow_(a, exponent):
    """Elementwise power with a constant (non-tensor) exponent."""
    a = as_tensor(a)
    if isinstance(exponent, Tensor):
        raise TypeError("pow_ supports constant exponents only; use exp/log for tensor exponents")
    result = _unary(a, a.data ** exponent,
                    lambda g: g * exponent * a.data ** (exponent - 1), "pow")
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        rec.ufunc(np.power, (a.data, exponent), result.data)
    return result


def exp(a):
    """Elementwise exponential."""
    a = as_tensor(a)
    data = np.exp(a.data)
    return _unary_graph_output(a, np.exp, data, lambda d: lambda g: g * d, "exp")


def _unary_graph_output(a, fn, data, make_grad, name):
    """Unary ufunc op whose gradient reads its own (refreshed) output."""
    result = _unary(a, data, make_grad(data), name)
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        rec.ufunc(fn, (a.data,), result.data)
    return result


def log(a):
    """Elementwise natural logarithm."""
    a = as_tensor(a)
    return _unary_ufunc(a, np.log, lambda g: g / a.data, "log")


def sqrt(a):
    """Elementwise square root."""
    a = as_tensor(a)
    data = np.sqrt(a.data)
    return _unary_graph_output(a, np.sqrt, data, lambda d: lambda g: g * 0.5 / d, "sqrt")


def abs_(a):
    """Elementwise absolute value (subgradient 0 at zero... sign)."""
    a = as_tensor(a)
    return _unary_ufunc(a, np.absolute, lambda g: g * np.sign(a.data), "abs")


def tanh(a):
    """Elementwise hyperbolic tangent."""
    a = as_tensor(a)
    data = np.tanh(a.data)
    return _unary_graph_output(a, np.tanh, data,
                               lambda d: lambda g: g * (1.0 - d * d), "tanh")


def sigmoid(a):
    """Numerically stable elementwise logistic sigmoid."""
    a = as_tensor(a)
    x = a.data
    data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))
    result = _unary(a, data, lambda g: g * data * (1.0 - data), "sigmoid")
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        od = result.data

        def refresh():
            od[...] = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)),
                               np.exp(x) / (1.0 + np.exp(x)))

        rec.run(refresh, reads=(x,), writes=(od,))
    return result


def relu(a):
    """Elementwise rectified linear unit."""
    a = as_tensor(a)
    mask = a.data > 0
    result = _unary(a, a.data * mask, lambda g: g * mask, "relu")
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        # Two fusable specs: refresh the mask, then the masked product.
        rec.ufunc(np.greater, (a.data, 0), mask)
        rec.ufunc(np.multiply, (a.data, mask), result.data)
    return result


def leaky_relu(a, negative_slope=0.01):
    """Leaky ReLU with configurable negative slope."""
    a = as_tensor(a)
    mask = a.data > 0
    scale = np.where(mask, 1.0, negative_slope)
    result = _unary(a, a.data * scale, lambda g: g * scale, "leaky_relu")
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        ad, od = a.data, result.data

        def refresh():
            np.greater(ad, 0, out=mask)
            scale[...] = np.where(mask, 1.0, negative_slope)
            np.multiply(ad, scale, out=od)

        rec.run(refresh, reads=(ad,), writes=(od,))
    return result


def softplus(a):
    """Numerically stable ``log(1 + exp(a))``."""
    a = as_tensor(a)
    x = a.data
    data = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    sig = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))
    result = _unary(a, data, lambda g: g * sig, "softplus")
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        od = result.data

        def refresh():
            od[...] = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
            sig[...] = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)),
                                np.exp(x) / (1.0 + np.exp(x)))

        rec.run(refresh, reads=(x,), writes=(od,))
    return result


def clip(a, low, high):
    """Clamp values to ``[low, high]``; gradient is zero outside."""
    a = as_tensor(a)
    mask = (a.data >= low) & (a.data <= high)
    result = _unary(a, np.clip(a.data, low, high), lambda g: g * mask, "clip")
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        ad, od = a.data, result.data

        def refresh():
            mask[...] = (ad >= low) & (ad <= high)
            np.clip(ad, low, high, out=od)

        rec.run(refresh, reads=(ad,), writes=(od,))
    return result


def where(condition, a, b):
    """Select from ``a`` where ``condition`` else from ``b``.

    ``condition`` is a plain boolean array (no gradient flows to it).
    """
    cond_src = condition.data if isinstance(condition, Tensor) else None
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    cond = cond.astype(bool)
    a, b = _coerce_operands(a, b)
    data = np.where(cond, a.data, b.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate_grad(unbroadcast(grad * cond, a.shape))
        if b.requires_grad:
            b._accumulate_grad(unbroadcast(grad * (~cond), b.shape))

    result = Tensor._from_op(data, (a, b), backward, name="where")
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        ad, bd, od = a.data, b.data, result.data
        # A tensor-valued condition may itself be refreshed by the plan;
        # re-derive the bool snapshot from the live buffer each replay.
        src = cond_src if cond_src is not None and cond_src is not cond else None
        reads = (ad, bd) if src is None else (src, ad, bd)

        def refresh():
            if src is not None:
                cond[...] = src
            np.copyto(od, bd)
            np.copyto(od, ad, where=cond)

        rec.run(refresh, reads=reads, writes=(od,))
    return result
