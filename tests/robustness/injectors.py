"""Deterministic fault injectors for the robustness suite.

Three families of faults, all reproducible:

- :class:`ToyForecaster` + :class:`FaultInjector` — a tiny protocol-
  complete model whose wrapper perturbs the loss graph at scheduled
  steps (NaN loss, finite loss with NaN gradients, exploding loss) or
  delivers a real OS signal mid-step, driving the trainer's divergence
  sentinel and interruption paths end to end.
- :func:`truncate_file` / :func:`flip_byte` — byte-level on-disk
  checkpoint corruption.
- pytest ``monkeypatch`` hooks in the tests themselves simulate a kill
  between checkpoint write start and finish.
"""

from __future__ import annotations

import os
import signal
from types import SimpleNamespace

import numpy as np

from repro.core.losses import LossBreakdown
from repro.nn import Linear, Module
from repro.nn.losses import mse_loss
from repro.tensor import Tensor, no_grad


class ToyForecaster(Module):
    """Minimal Trainer-protocol model: one linear map over closeness."""

    def __init__(self, data, seed=0):
        super().__init__()
        _n, length, channels, height, width = data.train.closeness.shape
        self._target_shape = (channels, height, width)
        self.linear = Linear(length * channels * height * width,
                             channels * height * width,
                             rng=np.random.default_rng(seed))

    def forward(self, closeness):
        flat = Tensor(closeness.reshape(closeness.shape[0], -1))
        return self.linear(flat)

    def training_loss(self, batch, rng=None):
        prediction = self.forward(batch.closeness)
        target = Tensor(batch.target.reshape(len(batch), -1))
        reg = mse_loss(prediction, target)
        zero = Tensor(0.0)
        breakdown = LossBreakdown(total=reg, dis=zero, push=zero, pull=zero,
                                  reg=reg)
        return breakdown, SimpleNamespace(prediction=prediction)

    def predict(self, batch):
        with no_grad():
            prediction = self.forward(batch.closeness)
        return prediction.data.reshape((len(batch),) + self._target_shape)


class FaultInjector:
    """Wrap a model and corrupt its loss at scheduled training steps.

    ``training_loss`` calls are counted from 0 across the whole fit;
    everything else (parameters, modes, state dicts, predict) delegates
    to the wrapped model, so the Trainer sees a normal protocol model.

    Parameters
    ----------
    nan_loss_steps:
        Steps whose loss is multiplied by NaN (non-finite loss *and*
        gradients — the classic divergence signature).
    nan_grad_steps:
        Steps that gain a term whose forward value is exactly 0 but
        whose backward divides by zero: the loss stays finite while a
        parameter gradient goes NaN (``sqrt(relu(-|w|))`` at 0).
    scale_loss_steps:
        ``{step: factor}`` — multiply the loss, exploding the gradient
        norm without leaving finite arithmetic.
    signal_steps:
        Steps at which ``signum`` is delivered to the current process
        *during* the forward pass, like an operator's Ctrl-C.
    """

    def __init__(self, model, nan_loss_steps=(), nan_grad_steps=(),
                 scale_loss_steps=None, signal_steps=(),
                 signum=signal.SIGINT):
        self._model = model
        self.nan_loss_steps = frozenset(nan_loss_steps)
        self.nan_grad_steps = frozenset(nan_grad_steps)
        self.scale_loss_steps = dict(scale_loss_steps or {})
        self.signal_steps = frozenset(signal_steps)
        self.signum = signum
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._model, name)

    def training_loss(self, batch, rng=None):
        breakdown, outputs = self._model.training_loss(batch, rng=rng)
        step = self.calls
        self.calls += 1
        if step in self.nan_loss_steps:
            breakdown.total = breakdown.total * float("nan")
        if step in self.nan_grad_steps:
            weight = self._model.parameters()[0]
            # relu(-w*w) is exactly 0, so sqrt's backward divides by
            # zero: 0-valued forward, NaN deposited into the gradient.
            zero_term = (-(weight * weight)).relu().sqrt().sum() * 0.0
            breakdown.total = breakdown.total + zero_term
        factor = self.scale_loss_steps.get(step)
        if factor is not None:
            breakdown.total = breakdown.total * factor
        if step in self.signal_steps:
            os.kill(os.getpid(), self.signum)
        return breakdown, outputs


def truncate_file(path, fraction=0.5):
    """Cut a file to the leading ``fraction`` of its bytes (crash tail)."""
    with open(path, "rb") as stream:
        blob = stream.read()
    with open(path, "wb") as stream:
        stream.write(blob[:int(len(blob) * fraction)])


def flip_byte(path, offset=None):
    """XOR one byte (middle of the file by default): silent media error."""
    with open(path, "rb") as stream:
        blob = bytearray(stream.read())
    if offset is None:
        offset = len(blob) // 2
    blob[offset] ^= 0xFF
    with open(path, "wb") as stream:
        stream.write(blob)
