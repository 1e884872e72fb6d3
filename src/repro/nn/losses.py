"""Loss functions and Gaussian divergences.

The KL divergences here are the work-horses of MUSE-Net's lower-bound
objective (Eqs. 27-29 of the paper): every term is a KL between diagonal
Gaussians parameterized by ``(mean, log-variance)`` tensors.
"""

from __future__ import annotations

from repro.tensor import exp, mean, sum_

__all__ = ["mse_loss", "kl_standard_normal", "kl_diag_gaussians"]


def mse_loss(prediction, target):
    """Mean squared error (the paper's regression loss, Eq. 30)."""
    diff = prediction - target
    return mean(diff * diff)


def kl_standard_normal(mu, logvar, reduce_mean=True):
    """KL( N(mu, diag exp(logvar)) || N(0, I) ).

    Summed over the latent axis, averaged over the batch when
    ``reduce_mean`` (the convention the training objective uses).
    """
    per_dim = 0.5 * (exp(logvar) + mu * mu - 1.0 - logvar)
    per_sample = sum_(per_dim, axis=-1)
    return mean(per_sample) if reduce_mean else per_sample


def kl_diag_gaussians(mu_p, logvar_p, mu_q, logvar_q, reduce_mean=True):
    """KL( N(mu_p, exp(logvar_p)) || N(mu_q, exp(logvar_q)) ).

    Both distributions are diagonal Gaussians over the last axis.
    """
    diff = mu_p - mu_q
    per_dim = 0.5 * (
        logvar_q - logvar_p
        + (exp(logvar_p) + diff * diff) / exp(logvar_q)
        - 1.0
    )
    per_sample = sum_(per_dim, axis=-1)
    return mean(per_sample) if reduce_mean else per_sample
