"""Batch normalization."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, get_default_dtype
from repro.tensor.reductions import mean, var
from repro.tensor.ops import sqrt

__all__ = ["BatchNorm2d"]


class BatchNorm2d(Module):
    """Batch normalization over ``(N, C, H, W)`` inputs.

    Running statistics are tracked with exponential moving averages and
    used in evaluation mode.
    """

    def __init__(self, num_features, eps=1e-5, momentum=0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        ones = np.ones((num_features,), dtype=get_default_dtype())
        self.weight = Parameter(ones.copy(), name="weight")
        self.bias = Parameter(init.zeros((num_features,)), name="bias")
        self.running_mean = init.zeros((num_features,))
        self.running_var = ones

    def forward(self, x):
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects (N, C, H, W); got shape {x.shape}")
        if self.training:
            mu = mean(x, axis=(0, 2, 3), keepdims=True)
            sigma2 = var(x, axis=(0, 2, 3), keepdims=True)
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mu.data.reshape(-1)
            self.running_var = (1 - m) * self.running_var + m * sigma2.data.reshape(-1)
        else:
            # Buffers may predate a dtype cast (e.g. a float64 checkpoint
            # restored into a float32 run); follow the input's dtype so
            # eval stays in one precision.
            mu = Tensor(self.running_mean.reshape(1, -1, 1, 1)
                        .astype(x.dtype, copy=False))
            sigma2 = Tensor(self.running_var.reshape(1, -1, 1, 1)
                            .astype(x.dtype, copy=False))
        normalized = (x - mu) / sqrt(sigma2 + self.eps)
        scale = self.weight.reshape((1, -1, 1, 1))
        shift = self.bias.reshape((1, -1, 1, 1))
        return normalized * scale + shift
