"""The Adam optimizer and gradient-norm clipping."""

from repro.optim.base import Optimizer
from repro.optim.adam import Adam
from repro.optim.clip import clip_grad_norm
from repro.optim.reference import ReferenceAdam

__all__ = ["Optimizer", "Adam", "ReferenceAdam", "clip_grad_norm"]
