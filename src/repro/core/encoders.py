"""MUSE-Net encoders.

The joint-training framework (paper §IV-E, Fig. 3) uses:

- a **stem** per sub-series producing its "convolutional features",
- an **exclusive encoder** per sub-series: a convolution producing the
  exclusive representation ``Z^i`` plus an FC head for ``r(z^i | i)``,
- one **interactive encoder** over all three stems' features producing
  ``Z^S`` and ``r(z^s | c, p, t)``,
- **simplex** (``g(z^s | i)``) and **duplex** (``d(z^s | i, j)``)
  variational encoders used only inside the semantic-pulling bound.
"""

from __future__ import annotations

import numpy as np

from repro.core.variational import GaussianHead
from repro.nn import Conv2d, Module
from repro.tensor import concat, relu

__all__ = [
    "SeriesStem",
    "ExclusiveEncoder",
    "InteractiveEncoder",
    "SimplexEncoder",
    "DuplexEncoder",
]


class SeriesStem(Module):
    """Convolutional feature extractor for one time sub-series.

    Input ``(N, L*2, H, W)`` (the sub-series frames stacked on the
    channel axis) -> features ``(N, d, H, W)``.
    """

    def __init__(self, in_channels, rep_channels, rng=None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.conv = Conv2d(in_channels, rep_channels, 3, padding="same", rng=rng)

    def forward(self, x):
        return relu(self.conv(x))


class ExclusiveEncoder(Module):
    """Exclusive representation + posterior for one sub-series.

    Maps stem features to the exclusive representation ``Z^i`` (a conv
    layer) and its diagonal-Gaussian posterior ``r(z^i | i)`` (an FC
    head), per the paper's description of the exclusive encoder.
    """

    def __init__(self, rep_channels, spatial_size, latent_dim, rng=None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.conv = Conv2d(rep_channels, rep_channels, 3, padding="same", rng=rng)
        self.head = GaussianHead(rep_channels * spatial_size, latent_dim, rng=rng)

    def represent(self, features):
        """The exclusive representation ``Z^i`` alone (what prediction reads)."""
        return relu(self.conv(features))

    def forward(self, features):
        representation = self.represent(features)
        return representation, self.head(representation)


class InteractiveEncoder(Module):
    """Interactive representation + posterior from all three stems.

    Concatenates the ternary convolutional features on the channel axis
    and maps them to ``Z^S`` and ``r(z^s | c, p, t)``.
    """

    def __init__(self, rep_channels, spatial_size, latent_dim, rng=None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.conv = Conv2d(3 * rep_channels, rep_channels, 3, padding="same", rng=rng)
        self.head = GaussianHead(rep_channels * spatial_size, latent_dim, rng=rng)

    def represent(self, features_c, features_p, features_t):
        """The interactive representation ``Z^S`` alone."""
        return relu(self.conv(concat([features_c, features_p, features_t], axis=1)))

    def forward(self, features_c, features_p, features_t):
        representation = self.represent(features_c, features_p, features_t)
        return representation, self.head(representation)


class SimplexEncoder(Module):
    """Variational distribution ``g(z^s | i)`` for a single sub-series."""

    def __init__(self, rep_channels, spatial_size, latent_dim, rng=None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.conv = Conv2d(rep_channels, rep_channels, 3, padding="same", rng=rng)
        self.head = GaussianHead(rep_channels * spatial_size, latent_dim, rng=rng)

    def forward(self, features):
        return self.head(relu(self.conv(features)))


class DuplexEncoder(Module):
    """Variational distribution ``d(z^s | i, j)`` for a pair of sub-series."""

    def __init__(self, rep_channels, spatial_size, latent_dim, rng=None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.conv = Conv2d(2 * rep_channels, rep_channels, 3, padding="same", rng=rng)
        self.head = GaussianHead(rep_channels * spatial_size, latent_dim, rng=rng)

    def forward(self, features_i, features_j):
        fused = concat([features_i, features_j], axis=1)
        return self.head(relu(self.conv(fused)))
