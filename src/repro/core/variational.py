"""Gaussian posterior heads and the reparameterization trick.

Every distribution in MUSE-Net — the exclusive posteriors
``r(z^i | i)``, the interactive posterior ``r(z^s | c, p, t)``, the
simplex ``g(z^s | i)`` and duplex ``d(z^s | i, j)`` variational
distributions — is a diagonal Gaussian whose mean and log-variance are
produced by a fully connected head over convolutional features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn import Linear, Module
from repro.tensor import Tensor, exp, reparameterize_noise

__all__ = ["GaussianPosterior", "GaussianHead", "reparameterize"]


@dataclass
class GaussianPosterior:
    """A diagonal Gaussian ``N(mu, exp(logvar))`` over the latent axis."""

    mu: Tensor
    logvar: Tensor

    @property
    def dim(self):
        """Latent dimensionality."""
        return self.mu.shape[-1]

    def sample(self, rng):
        """Reparameterized sample ``mu + sigma * eps``; differentiable."""
        return reparameterize(self.mu, self.logvar, rng)

    def detach(self):
        """A stop-gradient view: new tensors sharing ``mu`` and ``logvar``'s data.

        The bound-tightening terms pass it to ``gaussian_kl``, which
        deposits no gradient into inputs that do not require it.
        """
        return GaussianPosterior(mu=self.mu.detach(), logvar=self.logvar.detach())


def reparameterize(mu, logvar, rng):
    """Draw ``z = mu + exp(logvar / 2) * eps`` with ``eps ~ N(0, I)``.

    Gradients flow through ``mu`` and ``logvar`` but not ``eps``.
    """
    eps = reparameterize_noise(mu.shape, rng, dtype=mu.dtype)
    return mu + exp(logvar * 0.5) * eps


class GaussianHead(Module):
    """FC head mapping flattened features to ``(mu, logvar)``.

    The paper extracts each distribution "by a fully connected layer"
    from the representation; this head emits both parameters.  The
    log-variance output is soft-bounded to keep KL terms finite early
    in training.
    """

    LOGVAR_BOUND = 8.0

    def __init__(self, in_features, latent_dim, rng=None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.latent_dim = latent_dim
        self.mu_head = Linear(in_features, latent_dim, rng=rng)
        self.logvar_head = Linear(in_features, latent_dim, rng=rng)

    def forward(self, features):
        flat = features.flatten(start_axis=1)
        mu = self.mu_head(flat)
        logvar = self.logvar_head(flat).tanh() * self.LOGVAR_BOUND
        return GaussianPosterior(mu=mu, logvar=logvar)
