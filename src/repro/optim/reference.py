"""Reference (textbook, allocating) optimizer kernels.

These are the pre-optimization update rules, kept verbatim: every step
builds its moment math out of fresh numpy temporaries, one parameter
at a time.  :class:`ReferenceOptimizer` holds that per-parameter step
loop — the only one left; the optimizers in :mod:`repro.optim` sweep a
flat arena in blocks instead (:class:`repro.optim.Optimizer`).  They
exist for two reasons:

- **Equivalence testing** — the block kernels in :mod:`repro.optim`
  are required to match these to float64 rounding noise, step for step
  (see ``tests/nn/test_optim_inplace.py``).
- **Benchmarking** — ``benchmarks/bench_train_throughput.py`` uses
  :class:`ReferenceAdam` as the "seed" arm when measuring what the
  float32 policy and the allocation-free kernels buy.

Each ``_update`` reports the temporaries it allocates via
``_note_alloc`` so the profiler's ``optimizer_alloc_bytes`` counter
shows the contrast against the in-place kernels (which report zero in
steady state).  Do not use these for training runs you care about.
"""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer

__all__ = ["ReferenceSGD", "ReferenceAdam", "ReferenceAdamW",
           "ReferenceRMSProp", "ReferenceAdagrad"]


class ReferenceOptimizer(Optimizer):
    """Per-parameter step loop over ``_update(param, grad, state)``.

    Each parameter's state dict holds the arrays its kernel allocated;
    parameters without a gradient are skipped.  No arena, no blocks.
    """

    def step(self):
        self._step_count += 1
        self.last_step_alloc_bytes = 0
        for param, state in zip(self.parameters, self._state):
            if param.grad is not None:
                self._update(param, param.grad, state)
        self._finish_step()


class ReferenceSGD(ReferenceOptimizer):
    """Seed SGD kernel: classical momentum, allocating temporaries."""

    def __init__(self, parameters, lr=0.01, momentum=0.0, weight_decay=0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay

    def _update(self, param, grad, state):
        nbytes = param.data.nbytes
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
            self._note_alloc(2 * nbytes)
        if self.momentum:
            velocity = state.get("velocity")
            if velocity is None:
                velocity = np.zeros_like(param.data)
                self._note_alloc(nbytes)
            velocity = self.momentum * velocity - self.lr * grad
            state["velocity"] = velocity
            self._note_alloc(3 * nbytes)
            param.data += velocity
        else:
            param.data -= self.lr * grad
            self._note_alloc(nbytes)


class ReferenceAdam(ReferenceOptimizer):
    """Seed Adam kernel: bias-corrected moments, allocating temporaries."""

    def __init__(self, parameters, lr=2e-4, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay

    def _update(self, param, grad, state):
        nbytes = param.data.nbytes
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
            self._note_alloc(2 * nbytes)
        m = state.get("m")
        v = state.get("v")
        t = state.get("t", 0) + 1
        if m is None:
            m = np.zeros_like(param.data)
            v = np.zeros_like(param.data)
            self._note_alloc(2 * nbytes)
        m = self.beta1 * m + (1.0 - self.beta1) * grad
        v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
        state["m"], state["v"], state["t"] = m, v, t
        m_hat = m / (1.0 - self.beta1 ** t)
        v_hat = v / (1.0 - self.beta2 ** t)
        param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        # 3 temps for m, 4 for v, m_hat/v_hat, sqrt/add/mul/div chain.
        self._note_alloc(13 * nbytes)


class ReferenceAdamW(ReferenceOptimizer):
    """Seed AdamW kernel: decoupled decay, allocating temporaries."""

    def __init__(self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=1e-2):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay

    def _update(self, param, grad, state):
        nbytes = param.data.nbytes
        m = state.get("m")
        v = state.get("v")
        t = state.get("t", 0) + 1
        if m is None:
            m = np.zeros_like(param.data)
            v = np.zeros_like(param.data)
            self._note_alloc(2 * nbytes)
        m = self.beta1 * m + (1.0 - self.beta1) * grad
        v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
        state["m"], state["v"], state["t"] = m, v, t
        m_hat = m / (1.0 - self.beta1 ** t)
        v_hat = v / (1.0 - self.beta2 ** t)
        param.data -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps)
                                 + self.weight_decay * param.data)
        self._note_alloc(15 * nbytes)


class ReferenceRMSProp(ReferenceOptimizer):
    """Seed RMSProp kernel: allocating temporaries."""

    def __init__(self, parameters, lr=1e-3, alpha=0.99, eps=1e-8):
        super().__init__(parameters, lr)
        self.alpha = alpha
        self.eps = eps

    def _update(self, param, grad, state):
        nbytes = param.data.nbytes
        avg = state.get("square_avg")
        if avg is None:
            avg = np.zeros_like(param.data)
            self._note_alloc(nbytes)
        avg = self.alpha * avg + (1.0 - self.alpha) * grad * grad
        state["square_avg"] = avg
        param.data -= self.lr * grad / (np.sqrt(avg) + self.eps)
        self._note_alloc(8 * nbytes)


class ReferenceAdagrad(ReferenceOptimizer):
    """Seed Adagrad kernel: allocating temporaries."""

    def __init__(self, parameters, lr=1e-2, eps=1e-10):
        super().__init__(parameters, lr)
        self.eps = eps

    def _update(self, param, grad, state):
        nbytes = param.data.nbytes
        accumulated = state.get("sum_sq")
        if accumulated is None:
            accumulated = np.zeros_like(param.data)
            self._note_alloc(nbytes)
        accumulated = accumulated + grad * grad
        state["sum_sq"] = accumulated
        param.data -= self.lr * grad / (np.sqrt(accumulated) + self.eps)
        self._note_alloc(7 * nbytes)
