"""Recurrent cell (for the RNN baselines)."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, sigmoid, split, tanh

__all__ = ["GRUCell"]


class GRUCell(Module):
    """Gated recurrent unit cell (Cho et al., 2014 formulation)."""

    def __init__(self, input_size, hidden_size, rng=None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        # Gates are fused: [reset | update | candidate].
        self.w_ih = Parameter(init.glorot_uniform((input_size, 3 * hidden_size), rng))
        self.w_hh = Parameter(init.orthogonal((hidden_size, 3 * hidden_size), rng))
        self.b = Parameter(init.zeros((3 * hidden_size,)))

    def initial_state(self, batch_size, dtype=None):
        """Zero hidden state of shape ``(batch, hidden)``."""
        return Tensor(np.zeros((batch_size, self.hidden_size), dtype=dtype))

    def forward(self, x, h):
        gates_x = x @ self.w_ih + self.b
        gates_h = h @ self.w_hh
        rx, zx, nx = split(gates_x, 3, axis=-1)
        rh, zh, nh = split(gates_h, 3, axis=-1)
        reset = sigmoid(rx + rh)
        update = sigmoid(zx + zh)
        candidate = tanh(nx + reset * nh)
        return update * h + (1.0 - update) * candidate
