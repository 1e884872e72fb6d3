"""Adagrad optimizer."""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer

__all__ = ["Adagrad"]


class Adagrad(Optimizer):
    """Adagrad (Duchi et al., 2011): per-parameter accumulated scaling.

    The block kernel is allocation-free (see
    :class:`repro.optim.Optimizer`).
    """

    _moments = ("sum_sq",)

    def __init__(self, parameters, lr=1e-2, eps=1e-10):
        super().__init__(parameters, lr)
        self.eps = eps

    def _update(self, data, grad, moments, buffers, t):
        (accumulated,) = moments
        buf1, buf2 = buffers
        # sum_sq <- sum_sq + g*g
        np.multiply(grad, grad, out=buf1)
        accumulated += buf1
        # data -= lr*g / (sqrt(sum_sq) + eps)
        np.sqrt(accumulated, out=buf1)
        buf1 += self.eps
        np.multiply(grad, self.lr, out=buf2)
        buf2 /= buf1
        data -= buf2
