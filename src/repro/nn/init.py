"""Weight initialization schemes.

Every function takes an explicit ``numpy.random.Generator`` so weight
draws are reproducible and independent of other random consumers.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import get_default_dtype

__all__ = ["zeros", "uniform", "normal", "glorot_uniform", "orthogonal"]


def zeros(shape):
    """All-zero array (bias default)."""
    return np.zeros(shape, dtype=get_default_dtype())


def uniform(shape, rng, low=-0.05, high=0.05):
    """Uniform draw in ``[low, high)``."""
    return rng.uniform(low, high, size=shape).astype(get_default_dtype())


def normal(shape, rng, std=0.05):
    """Zero-mean normal draw with standard deviation ``std``."""
    return (rng.standard_normal(shape) * std).astype(get_default_dtype())


def _fans(shape):
    """Compute (fan_in, fan_out) for dense and conv kernels."""
    if len(shape) == 2:
        return shape[0], shape[1]
    if len(shape) == 4:
        # (out_channels, in_channels, kh, kw)
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    size = int(np.prod(shape))
    return size, size


def glorot_uniform(shape, rng):
    """Glorot/Xavier uniform — Keras's Dense/Conv default, which the
    paper's Keras implementation would have used."""
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return uniform(shape, rng, low=-limit, high=limit)


def orthogonal(shape, rng, gain=1.0):
    """Orthogonal init (used for recurrent kernels)."""
    if len(shape) < 2:
        raise ValueError("orthogonal init needs at least 2 dimensions")
    rows = shape[0]
    cols = int(np.prod(shape[1:]))
    flat = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return (gain * q[:rows, :cols]).reshape(shape).astype(get_default_dtype())
