"""Convolutional layer."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import conv2d

__all__ = ["Conv2d"]


class Conv2d(Module):
    """2-D convolution over ``(N, C, H, W)`` inputs.

    ``padding='same'`` keeps the spatial size when ``stride == 1``
    (odd kernels only), matching the Keras layers MUSE-Net uses.
    """

    def __init__(self, in_channels, out_channels, kernel_size, stride=1,
                 padding=0, bias=True, rng=None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        kh, kw = (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        if padding == "same":
            if kh % 2 == 0 or kw % 2 == 0:
                raise ValueError("padding='same' requires odd kernel sizes")
            padding = (kh // 2, kw // 2)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.glorot_uniform((out_channels, in_channels, kh, kw), rng), name="weight"
        )
        self.bias = Parameter(init.zeros((out_channels,)), name="bias") if bias else None

    def forward(self, x):
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def __repr__(self):
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding})"
        )
