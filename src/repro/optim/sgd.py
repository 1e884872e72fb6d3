"""Stochastic gradient descent with optional momentum."""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer

__all__ = ["SGD"]


class SGD(Optimizer):
    """SGD with classical momentum and optional weight decay.

    The block kernel is allocation-free (see
    :class:`repro.optim.Optimizer`): the velocity lives in the arena
    and all per-step math runs through the scratch rows.
    """

    def __init__(self, parameters, lr=0.01, momentum=0.0, weight_decay=0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._moments = ("velocity",) if momentum else ()

    def _update(self, data, grad, moments, buffers, t):
        buf1, buf2 = buffers
        if self.weight_decay:
            np.multiply(data, self.weight_decay, out=buf1)
            buf1 += grad
            grad = buf1
        if self.momentum:
            (velocity,) = moments
            # velocity <- momentum*velocity - lr*g
            velocity *= self.momentum
            np.multiply(grad, self.lr, out=buf2)
            velocity -= buf2
            data += velocity
        else:
            np.multiply(grad, self.lr, out=buf2)
            data -= buf2
