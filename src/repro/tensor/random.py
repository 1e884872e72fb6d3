"""Seeded randomness helpers for the tensor library.

All stochastic behaviour in the library flows through
``numpy.random.Generator`` objects so experiments are reproducible from
a single integer seed.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import tensor as _core
from repro.tensor.tensor import Tensor

__all__ = ["make_rng", "reparameterize_noise"]


def make_rng(seed):
    """Create a ``numpy.random.Generator`` from an int seed (or pass one through)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _record_draw(buf, rng, shape):
    """Register an rng-draw replay kernel for a noise leaf.

    The kernel captures the *generator object* — replay draws from it in
    schedule order, so a replayed step consumes the identical stream the
    eager step would have (in-place assignment applies the same
    round-to-nearest cast as ``astype``, keeping results bitwise equal).
    """
    rec = _core._THREAD.hooks.recorder
    if rec is None:
        return

    def draw():
        buf[...] = rng.standard_normal(shape)

    rec.rng(draw, writes=(buf,))


def reparameterize_noise(shape, rng, dtype=np.float64):
    """Standard-normal epsilon for the VAE reparameterization trick."""
    result = Tensor(rng.standard_normal(shape).astype(dtype))
    _record_draw(result.data, rng, shape)
    return result
