"""Gradient-norm clipping."""

from __future__ import annotations

import numpy as np

__all__ = ["clip_grad_norm"]


def clip_grad_norm(parameters, max_norm, norm=None):
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (useful for logging exploding gradients).

    Allocation-free: each per-parameter sum of squares comes from
    ``np.vdot`` (a BLAS dot of the gradient with itself — no ``g * g``
    temporary), and the rescale runs in place, preserving each
    gradient's dtype.

    ``norm`` short-circuits the norm computation with a value the
    caller already has (the divergence sentinel computes the identical
    ordered ``vdot`` sum every step); it must be the current global
    grad norm or the clip threshold is applied against a stale value.
    """
    grads = [p.grad for p in parameters if p.grad is not None]
    total = (float(norm) if norm is not None
             else float(np.sqrt(sum(float(np.vdot(g, g)) for g in grads))))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for grad in grads:
            np.multiply(grad, scale, out=grad)
    return total
