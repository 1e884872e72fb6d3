"""RMSProp optimizer."""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer

__all__ = ["RMSProp"]


class RMSProp(Optimizer):
    """RMSProp with exponentially decaying squared-gradient average.

    The block kernel is allocation-free (see
    :class:`repro.optim.Optimizer`).
    """

    _moments = ("square_avg",)

    def __init__(self, parameters, lr=1e-3, alpha=0.99, eps=1e-8):
        super().__init__(parameters, lr)
        self.alpha = alpha
        self.eps = eps

    def _update(self, data, grad, moments, buffers, t):
        (avg,) = moments
        buf1, buf2 = buffers
        # avg <- alpha*avg + (1-alpha)*g*g
        avg *= self.alpha
        np.multiply(grad, 1.0 - self.alpha, out=buf1)
        buf1 *= grad
        avg += buf1
        # data -= lr*g / (sqrt(avg) + eps)
        np.sqrt(avg, out=buf1)
        buf1 += self.eps
        np.multiply(grad, self.lr, out=buf2)
        buf2 /= buf1
        data -= buf2
