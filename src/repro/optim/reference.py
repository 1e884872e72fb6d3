"""Reference (textbook, allocating) Adam kernel.

This is the pre-optimization update rule, kept verbatim: every step
builds its moment math out of fresh numpy temporaries, one parameter
at a time, where :class:`repro.optim.Adam` sweeps a flat arena in
blocks (:class:`repro.optim.Optimizer`).  It exists for two reasons:

- **Equivalence testing** — the block kernel of :class:`~repro.optim.Adam`
  is required to match it to float64 rounding noise, step for step
  (see ``tests/nn/test_optim_inplace.py``).
- **Benchmarking** — ``benchmarks/bench_train_throughput.py`` uses
  :class:`ReferenceAdam` as the "seed" arm when measuring what the
  float32 policy and the allocation-free kernel buy.

Each ``_update`` reports the temporaries it allocates via
``_note_alloc`` so the profiler's ``optimizer_alloc_bytes`` counter
shows the contrast against the in-place kernel (which reports zero in
steady state).  Do not use it for training runs you care about.
"""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer

__all__ = ["ReferenceAdam"]


class ReferenceAdam(Optimizer):
    """Seed Adam kernel: bias-corrected moments, allocating temporaries.

    A per-parameter step loop over ``_update(param, grad, state)``: each
    parameter's state dict holds the arrays its kernel allocated, and
    parameters without a gradient are skipped.  No arena, no blocks.
    """

    def __init__(self, parameters, lr=2e-4, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay

    def step(self):
        self._step_count += 1
        self.last_step_alloc_bytes = 0
        for param, state in zip(self.parameters, self._state):
            if param.grad is not None:
                self._update(param, param.grad, state)
        self._finish_step()

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
