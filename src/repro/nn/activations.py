"""Functional softmax helpers."""

from __future__ import annotations

from repro.tensor import ops as _ops
from repro.tensor.reductions import logsumexp, max_, sum_

__all__ = ["softmax", "log_softmax"]


def softmax(x, axis=-1):
    """Numerically stable softmax along ``axis``."""
    shifted = x - max_(x, axis=axis, keepdims=True).detach()
    exp = _ops.exp(shifted)
    return exp / sum_(exp, axis=axis, keepdims=True)


def log_softmax(x, axis=-1):
    """Numerically stable log-softmax along ``axis``."""
    return x - logsumexp(x, axis=axis, keepdims=True)
