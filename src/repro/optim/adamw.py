"""AdamW optimizer (decoupled weight decay)."""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer

__all__ = ["AdamW"]


class AdamW(Optimizer):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019).

    Unlike L2-regularized Adam, the decay is applied directly to the
    weights rather than folded into the gradient, which keeps the decay
    strength independent of the adaptive step size.  The block kernel
    is allocation-free (see :class:`repro.optim.Optimizer`).
    """

    _moments = ("m", "v")
    _counts_steps = True

    def __init__(self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=1e-2):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay

    def _update(self, data, grad, moments, buffers, t):
        m, v = moments
        buf1, buf2 = buffers
        beta1, beta2 = self.beta1, self.beta2

        # m <- beta1*m + (1-beta1)*g ; v <- beta2*v + (1-beta2)*g*g
        m *= beta1
        np.multiply(grad, 1.0 - beta1, out=buf2)
        m += buf2
        v *= beta2
        np.multiply(grad, 1.0 - beta2, out=buf2)
        buf2 *= grad
        v += buf2
        # buf1 <- sqrt(v_hat) + eps
        np.divide(v, 1.0 - beta2 ** t, out=buf1)
        np.sqrt(buf1, out=buf1)
        buf1 += self.eps
        # buf2 <- m_hat / buf1, then add the decoupled decay term
        np.divide(m, 1.0 - beta1 ** t, out=buf2)
        buf2 /= buf1
        if self.weight_decay:
            np.multiply(data, self.weight_decay, out=buf1)
            buf2 += buf1
        buf2 *= self.lr
        data -= buf2
