"""Reduction operations (sum, mean, max, ...) with gradients.

``gaussian_kl`` and ``sum_squares`` are the terms of MUSE-Net's
objective (paper Eqs. 27-30) as one tape node each: the forward runs
the elementwise expression's op order into buffers of its own, and the
backward deposits analytic gradients.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import tensor as _core
from repro.tensor.tensor import Tensor, as_tensor

__all__ = ["sum_", "mean", "max_", "var", "std", "logsumexp",
           "gaussian_kl", "sum_squares"]


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


def max_(a, axis=None, keepdims=False):
    """Maximum over ``axis``.

    When several elements tie for the maximum, the gradient is split
    evenly among them, which keeps the op consistent under gradient
    checking.
    """
    a = as_tensor(a)
    axis = _normalize_axis(axis, a.ndim)
    data = np.max(a.data, axis=axis, keepdims=keepdims)
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

    result = Tensor._from_op(data, (a,), backward, name="max")
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        ad, od = a.data, result.data

        def refresh():
            np.max(ad, axis=axis, keepdims=keepdims, out=od)
            # Re-expand from the live output (``expanded`` may wrap a
            # scalar snapshot when the forward reduced to 0-d).
            mask[...] = ad == _expand_to_input(od, ad.shape, axis, keepdims)
            if axis is not None:
                counts[...] = mask.sum(axis=axis, keepdims=True)
            else:
                counts[...] = mask.sum()

        rec.run(refresh, reads=(ad,), writes=(od,))
    return result


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


def _batch_mean(terms, per, out):
    """``mean(terms.sum(axis=-1))`` into ``per`` and the 0-d ``out``.

    Makes the ufunc calls ``ndarray.sum`` and ``np.mean`` make, without
    their Python wrappers, so ``out`` is bitwise the composed
    ``mean(sum_(terms, axis=-1))``.
    """
    np.add.reduce(terms, axis=-1, out=per)
    np.add.reduce(per, axis=None, out=out)
    np.true_divide(out, np.intp(per.size), out=out, casting="unsafe")


def _fused(parents, forward, backward, writes, name):
    """Run ``forward`` once and wrap its 0-d ``writes[-1]`` as a graph node.

    Under a compile recorder ``forward`` is the op's refresh kernel: it
    rewrites every buffer in ``writes``, each array the backward reads
    among them, in place.
    """
    forward()
    result = Tensor._from_op(writes[-1], parents, backward, name=name)
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        rec.run(forward, reads=tuple(p.data for p in parents), writes=writes)
    return result


def gaussian_kl(mu_q, logvar_q, mu_p=None, logvar_p=None):
    """KL( N(mu_q, exp(logvar_q)) || N(mu_p, exp(logvar_p)) ).

    Both Gaussians are diagonal over the last axis; the KL is summed
    over that axis and averaged over the batch.  With no ``p`` it is the
    KL to N(0, I).  The value is bitwise that of the elementwise
    expression; gradients go only to inputs that require them, so a
    stop-gradient side is a detached input.
    """
    if (mu_p is None) != (logvar_p is None):
        raise ValueError("gaussian_kl needs both mu_p and logvar_p, or neither")
    if mu_p is None:
        return _kl_standard(as_tensor(mu_q), as_tensor(logvar_q))
    return _kl_pair(*map(as_tensor, (mu_q, logvar_q, mu_p, logvar_p)))


def _kl_buffers(arrays, count):
    """``count`` latent-shaped buffers, the per-sample buffer and the 0-d output."""
    shape = arrays[0].shape
    if not shape or any(a.shape != shape for a in arrays):
        raise ValueError("gaussian_kl needs inputs of one shape with a "
                         f"latent axis; got {[a.shape for a in arrays]}")
    dtype = np.result_type(*arrays)
    return (*np.empty((count, *shape), dtype=dtype),
            np.empty(shape[:-1], dtype=dtype), np.empty((), dtype=dtype))


def _kl_standard(mu, logvar):
    """KL( N(mu, exp(logvar)) || N(0, I) ) as one node."""
    m, lv = mu.data, logvar.data
    eq, terms, per, out = _kl_buffers((m, lv), 2)
    count = per.size

    def forward():
        # 0.5 * (exp(lv) + m * m - 1.0 - lv)
        np.exp(lv, out=eq)
        np.multiply(m, m, out=terms)
        np.add(eq, terms, out=terms)
        np.subtract(terms, 1.0, out=terms)
        np.subtract(terms, lv, out=terms)
        np.multiply(0.5, terms, out=terms)
        _batch_mean(terms, per, out)

    def backward(grad):
        g = grad / count
        if mu.requires_grad:
            mu._accumulate_grad(m * g)
        if logvar.requires_grad:
            d = eq - 1.0
            d *= 0.5 * g
            logvar._accumulate_grad(d)

    return _fused((mu, logvar), forward, backward, (eq, terms, per, out),
                  "gaussian_kl")


def _kl_pair(mu_q, logvar_q, mu_p, logvar_p):
    """KL( N(mu_q, exp(logvar_q)) || N(mu_p, exp(logvar_p)) ) as one node."""
    parents = (mu_q, logvar_q, mu_p, logvar_p)
    mq, lq, mp, lp = arrays = tuple(p.data for p in parents)
    diff, eq, ep, ratio, terms, per, out = _kl_buffers(arrays, 5)
    count = per.size

    def forward():
        # 0.5 * (lp - lq + (exp(lq) + (mq - mp) ** 2) / exp(lp) - 1.0)
        np.subtract(mq, mp, out=diff)
        np.exp(lq, out=eq)
        np.exp(lp, out=ep)
        np.multiply(diff, diff, out=terms)
        np.add(eq, terms, out=terms)
        np.divide(terms, ep, out=ratio)
        np.subtract(lp, lq, out=terms)
        np.add(terms, ratio, out=terms)
        np.subtract(terms, 1.0, out=terms)
        np.multiply(0.5, terms, out=terms)
        _batch_mean(terms, per, out)

    def backward(grad):
        g = grad / count
        if mu_q.requires_grad or mu_p.requires_grad:
            d = diff / ep
            d *= g
            if mu_q.requires_grad:
                mu_q._accumulate_grad(d)
            if mu_p.requires_grad:
                mu_p._accumulate_grad(-d)
        half = 0.5 * g
        if logvar_q.requires_grad:
            d = eq / ep
            d -= 1.0
            d *= half
            logvar_q._accumulate_grad(d)
        if logvar_p.requires_grad:
            d = 1.0 - ratio
            d *= half
            logvar_p._accumulate_grad(d)

    return _fused(parents, forward, backward,
                  (diff, eq, ep, ratio, terms, per, out), "gaussian_kl")


def sum_squares(a, b, scale=1.0):
    """Per-sample sum of ``scale * (a - b) ** 2``, averaged over the batch.

    The sum runs over every axis after the first.  The value is bitwise
    that of the elementwise expression; gradients go only to inputs that
    require them.  ``scale`` is a non-negative constant.
    """
    a, b = as_tensor(a), as_tensor(b)
    if not a.ndim or a.shape != b.shape:
        raise ValueError("sum_squares needs two batched inputs of one shape; "
                         f"got {a.shape} and {b.shape}")
    scale = float(scale)
    if not scale >= 0.0:
        raise ValueError(f"sum_squares needs a non-negative scale; got {scale}")
    ad, bd = a.data, b.data
    dtype = np.result_type(ad, bd)
    diff, squares = np.empty((2, *ad.shape), dtype=dtype)
    flat = squares.reshape(len(squares), -1)
    per = np.empty(len(squares), dtype=dtype)
    out = np.empty((), dtype=dtype)
    count = per.size

    def forward():
        np.subtract(ad, bd, out=diff)
        np.multiply(diff, diff, out=squares)
        if scale != 1.0:
            np.multiply(scale, flat, out=flat)
        _batch_mean(flat, per, out)

    def backward(grad):
        d = diff * (grad * (2.0 * scale / count))
        if a.requires_grad:
            a._accumulate_grad(d)
        if b.requires_grad:
            b._accumulate_grad(-d)

    return _fused((a, b), forward, backward, (diff, squares, per, out),
                  "sum_squares")
