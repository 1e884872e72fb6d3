"""Seeded randomness helpers for the tensor library.

All stochastic behaviour in the library flows through
``numpy.random.Generator`` objects so experiments are reproducible from
a single integer seed.  :func:`spawn` derives independent child
generators for submodules (data simulation, weight init,
reparameterization noise) so changing one consumer does not shift the
random stream of another.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import tensor as _core
from repro.tensor.tensor import Tensor

__all__ = ["make_rng", "spawn", "normal_like", "reparameterize_noise"]


def make_rng(seed):
    """Create a ``numpy.random.Generator`` from an int seed (or pass one through)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng, count):
    """Derive ``count`` statistically independent child generators."""
    seq = np.random.SeedSequence(rng.integers(0, 2**63 - 1, dtype=np.int64))
    return [np.random.default_rng(child) for child in seq.spawn(count)]


def _record_draw(buf, rng, shape, scale):
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
        if scale != 1.0:
            np.multiply(buf, scale, out=buf)

    rec.rng(draw, writes=(buf,))


def normal_like(tensor, rng, scale=1.0):
    """Detached standard-normal noise with ``tensor``'s shape and dtype."""
    data = rng.standard_normal(tensor.shape).astype(tensor.dtype) * scale
    result = Tensor(data)
    _record_draw(result.data, rng, tensor.shape, scale)
    return result


def reparameterize_noise(shape, rng, dtype=np.float64):
    """Standard-normal epsilon for the VAE reparameterization trick."""
    result = Tensor(rng.standard_normal(shape).astype(dtype))
    _record_draw(result.data, rng, shape, 1.0)
    return result
