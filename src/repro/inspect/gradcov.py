"""Gradient-coverage registry: one canonical gradcheck per op.

The autodiff layer registers its differentiable ops in the ``__all__``
of five modules (``ops``, ``reductions``, ``shape``, ``matmul``,
``conv``).  This module pairs every registered op with a canonical
finite-difference check case.  Two consumers:

* ``tests/tensor/test_gradcheck_coverage.py`` runs every case, so each
  op's analytic gradient is verified against central differences on
  every CI run — and the test *fails* when a newly registered op has no
  case here;
* the ``gradcheck-coverage`` lint rule (``repro lint``) reports
  registered ops missing from this registry without running anything.

Inputs are chosen away from non-differentiable points (``relu`` at 0,
``max`` ties, ``sqrt`` near 0) so the finite-difference probe stays
well-conditioned.
"""

from __future__ import annotations

import importlib

import numpy as np

__all__ = ["OP_MODULES", "registered_ops", "gradcheck_cases",
           "uncovered_ops"]

#: The op registry: every name in these modules' ``__all__`` is a
#: differentiable op, except the helpers listed below.
OP_MODULES = ("repro.tensor.ops", "repro.tensor.reductions",
              "repro.tensor.shape", "repro.tensor.matmul",
              "repro.tensor.conv")

#: ``__all__`` entries that are not ops (gradient plumbing helpers).
NON_OPS = frozenset({"unbroadcast"})


def registered_ops():
    """Return ``{op_name: module_name}`` for every registered op."""
    registry = {}
    for module_name in OP_MODULES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            if name not in NON_OPS:
                registry[name] = module_name
    return registry


def _t(*shape, low=-2.0, high=2.0, seed=0):
    from repro.tensor import Tensor

    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(low, high, size=shape))


def _pos(*shape, seed=0):
    return _t(*shape, low=0.5, high=2.0, seed=seed)


def _spread(*shape, seed=0):
    """Values with pairwise gaps: no ties for max."""
    from repro.tensor import Tensor

    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    values = np.arange(size, dtype=np.float64) + rng.uniform(0.1, 0.4, size)
    rng.shuffle(values)
    return Tensor(values.reshape(shape))


def gradcheck_cases():
    """Return ``{op_name: (fn, inputs)}`` ready for ``check_gradients``.

    ``fn`` maps the (tracked) input list to a scalar tensor; reductions
    to a scalar use ``.sum()`` where the op itself is not scalar.
    """
    import repro.tensor as rt

    # Fixed multiplier constants give structural ops (reshape & co) a
    # non-uniform upstream gradient — a plain .sum() would miss
    # transposed or mis-ordered gradients whose elements merely sum to
    # the same total.  Built here (not at import time) so they follow
    # the float64 policy gradcheck pins.
    _W12 = _const(12)
    _W22 = _const(2, 2)
    _W43 = _const(4, 3)
    _W36 = _const(3, 6)
    _W234 = _const(2, 3, 4)

    cases = {
        # ops.py ------------------------------------------------------
        "add": (lambda ts: (ts[0] + ts[1]).sum(), [_t(3, 4), _t(1, 4)]),
        "sub": (lambda ts: (ts[0] - ts[1]).sum(), [_t(3, 4), _t(3, 1)]),
        "mul": (lambda ts: (ts[0] * ts[1]).sum(), [_t(3, 4), _t(3, 4)]),
        "div": (lambda ts: (ts[0] / ts[1]).sum(), [_t(3, 4), _pos(3, 4)]),
        "neg": (lambda ts: (-ts[0]).sum(), [_t(3, 4)]),
        "pow_": (lambda ts: rt.pow_(ts[0], 3.0).sum(), [_pos(3, 4)]),
        "exp": (lambda ts: ts[0].exp().sum(), [_t(3, 4)]),
        "log": (lambda ts: ts[0].log().sum(), [_pos(3, 4)]),
        "sqrt": (lambda ts: ts[0].sqrt().sum(), [_pos(3, 4)]),
        "tanh": (lambda ts: ts[0].tanh().sum(), [_t(3, 4)]),
        "sigmoid": (lambda ts: ts[0].sigmoid().sum(), [_t(3, 4)]),
        "relu": (lambda ts: ts[0].relu().sum(), [_spread(3, 4)]),
        # reductions.py -----------------------------------------------
        "sum_": (lambda ts: ts[0].sum(axis=1).sum(), [_t(3, 4)]),
        "mean": (lambda ts: ts[0].mean(axis=0).sum(), [_t(3, 4)]),
        "max_": (lambda ts: ts[0].max(axis=1).sum(), [_spread(3, 4, seed=9)]),
        "var": (lambda ts: rt.var(ts[0], axis=1).sum(), [_t(3, 4)]),
        "std": (lambda ts: rt.std(ts[0], axis=1, eps=1e-3).sum(), [_t(3, 4)]),
        "logsumexp": (lambda ts: rt.logsumexp(ts[0], axis=1).sum(),
                      [_t(3, 4)]),
        # shape.py ----------------------------------------------------
        "reshape": (lambda ts: (ts[0].reshape((4, 3)) * _W43).sum(),
                    [_t(3, 4)]),
        "transpose": (lambda ts: (ts[0].transpose() * _W43).sum(),
                      [_t(3, 4)]),
        "swapaxes": (lambda ts: (rt.swapaxes(ts[0], 0, 1) * _W43).sum(),
                     [_t(3, 4)]),
        "flatten": (lambda ts: (rt.flatten(ts[0]) * _W12).sum(), [_t(3, 4)]),
        "concat": (lambda ts: (rt.concat([ts[0], ts[1]], axis=1)
                               * _W36).sum(),
                   [_t(3, 4), _t(3, 2)]),
        "stack": (lambda ts: (rt.stack([ts[0], ts[1]], axis=0)
                              * _W234).sum(),
                  [_t(3, 4), _t(3, 4, seed=11)]),
        "split": (lambda ts: sum((piece * piece).sum()
                                 for piece in rt.split(ts[0], 2, axis=1)),
                  [_t(3, 4)]),
        "getitem": (lambda ts: (ts[0][1:, ::2] * _W22).sum(), [_t(3, 4)]),
        "broadcast_to": (lambda ts: (rt.broadcast_to(ts[0], (2, 3, 4))
                                     * _W234).sum(),
                         [_t(3, 4)]),
        # matmul.py ---------------------------------------------------
        "matmul": (lambda ts: (ts[0] @ ts[1]).sum(), [_t(3, 4), _t(4, 2)]),
        # conv.py -----------------------------------------------------
        "conv2d": (lambda ts: (rt.conv2d(ts[0], ts[1], bias=ts[2],
                                         stride=1, padding=1) ** 2).sum(),
                   [_t(2, 3, 5, 5), _t(4, 3, 3, 3), _t(4)]),
        "global_avg_pool2d": (lambda ts: (rt.global_avg_pool2d(ts[0])
                                          ** 2).sum(),
                              [_t(2, 3, 4, 4)]),
    }
    return cases


def uncovered_ops():
    """Registered ops with no gradcheck case — should always be empty."""
    cases = gradcheck_cases()
    return sorted(name for name in registered_ops() if name not in cases)


def _const(*shape, seed=100):
    from repro.tensor import Tensor

    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(0.5, 1.5, size=shape))
