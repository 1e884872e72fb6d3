"""Adam optimizer (the paper trains with Adam, lr=2e-4)."""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer

__all__ = ["Adam"]


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias-corrected moments.

    The block kernel is written with ``out=`` numpy calls against the
    arena's moment rows and two scratch rows, so a steady-state step
    allocates nothing.  The arithmetic follows the reference
    formulation operation-for-operation (same products, same
    evaluation order), so results match the textbook implementation in
    :mod:`repro.optim.reference` to rounding noise.
    """

    _moments = ("m", "v")

    def __init__(self, parameters, lr=2e-4, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay

    def _update(self, data, grad, moments, buffers, t):
        m, v = moments
        buf1, buf2 = buffers
        beta1, beta2 = self.beta1, self.beta2

        if self.weight_decay:
            np.multiply(data, self.weight_decay, out=buf1)
            buf1 += grad
            grad = buf1

        # m <- beta1*m + (1-beta1)*g
        m *= beta1
        np.multiply(grad, 1.0 - beta1, out=buf2)
        m += buf2
        # v <- beta2*v + (1-beta2)*g*g
        v *= beta2
        np.multiply(grad, 1.0 - beta2, out=buf2)
        buf2 *= grad
        v += buf2
        # buf1 <- sqrt(v_hat) + eps   (grad alias is dead from here on)
        np.divide(v, 1.0 - beta2 ** t, out=buf1)
        np.sqrt(buf1, out=buf1)
        buf1 += self.eps
        # data -= lr * m_hat / buf1
        np.divide(m, 1.0 - beta1 ** t, out=buf2)
        buf2 *= self.lr
        buf2 /= buf1
        data -= buf2
