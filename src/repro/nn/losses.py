"""Loss functions.

The Gaussian KLs and per-sample squared errors of MUSE-Net's objective
are single tape nodes in :mod:`repro.tensor` (``gaussian_kl``,
``sum_squares``).
"""

from __future__ import annotations

from repro.tensor import mean

__all__ = ["mse_loss"]


def mse_loss(prediction, target):
    """Mean squared error (the paper's regression loss, Eq. 30)."""
    diff = prediction - target
    return mean(diff * diff)
