"""Anomaly detection for the autodiff engine.

``detect_anomaly()`` arms a per-op non-finite check at the engine's two
choke points (:meth:`repro.tensor.Tensor._from_op` for forwards,
:meth:`repro.tensor.Tensor.backward` for backwards, the same hooks the
op profiler uses).  The first op whose forward output or backward
gradient deposit contains a NaN/Inf raises :class:`AnomalyError`
naming the op, its input/output shapes and dtypes, and whether the
non-finite values originated at this op or were already present in an
input — so a diverging training run points at ``log``/``div``/``exp``
instead of surfacing as a NaN loss hundreds of ops later.

Like grad mode, the check is per thread: it covers only the ops of the
thread that entered :func:`detect_anomaly`, and only that thread's
compiled forwards and steps fall back to eager.

The checks scan every op output, so anomaly mode costs roughly one
extra pass over each array; use it to *localise* a known divergence
(e.g. re-running a failing batch), not as an always-on guard.  For the
cheap always-on guard see the trainer's divergence sentinel
(:mod:`repro.training.sentinel`).
"""

from __future__ import annotations

import numpy as np

from repro.tensor import tensor as _tensor_core

__all__ = ["AnomalyError", "detect_anomaly", "is_anomaly_enabled"]


class AnomalyError(ArithmeticError):
    """A non-finite value appeared under :func:`detect_anomaly`.

    Attributes
    ----------
    op:
        Name of the op at which the non-finite value was detected.
    phase:
        ``"forward"`` or ``"backward"``.
    """

    def __init__(self, message, op, phase):
        super().__init__(message)
        self.op = op
        self.phase = phase


def _describe(array):
    """``shape=... dtype=...`` plus a NaN/Inf census for an array."""
    array = np.asarray(array)
    finite = np.isfinite(array)
    if finite.all():
        census = "all finite"
    else:
        nans = int(np.isnan(array).sum())
        infs = int(array.size - finite.sum() - nans)
        census = f"{nans} NaN, {infs} Inf of {array.size}"
    return f"shape={array.shape} dtype={array.dtype} [{census}]"


def _check(phase, name, result, parents):
    """Raise :class:`AnomalyError` when ``result`` went non-finite.

    ``result`` is the op's forward output (phase ``"forward"``) or the
    op node's own upstream gradient (phase ``"backward"``); for the
    backward phase the freshly *deposited* per-parent gradients are
    what is actually scanned.
    """
    if phase == "forward":
        if np.isfinite(result).all():
            return
        lines = [
            f"detect_anomaly: op {name!r} produced a non-finite forward "
            f"output ({_describe(result)})"
        ]
        tainted = [p for p in parents
                   if not np.isfinite(np.asarray(p.data)).all()]
        if tainted:
            lines.append(
                "note: the non-finite values entered through this op's "
                "input(s), not its arithmetic:"
            )
        else:
            lines.append("all inputs were finite — this op is the origin:")
        for index, parent in enumerate(parents):
            label = parent.name or f"input {index}"
            lines.append(f"  input {index} ({label}): {_describe(parent.data)}")
        raise AnomalyError("\n".join(lines), op=name, phase="forward")

    # Backward: the closure for `name` just deposited gradients into its
    # parents.  Its own upstream gradient (`result`) was finite when the
    # graph above ran (it was checked as a deposit then), so any fresh
    # non-finite parent gradient was produced by this op's backward.
    for index, parent in enumerate(parents):
        grad = parent.grad
        if grad is None or np.isfinite(grad).all():
            continue
        label = parent.name or f"input {index}"
        message = (
            f"detect_anomaly: backward of op {name!r} deposited a "
            f"non-finite gradient into input {index} ({label}): "
            f"{_describe(grad)}\n"
            f"  op upstream gradient: {_describe(result)}\n"
            f"  input value: {_describe(parent.data)}"
        )
        raise AnomalyError(message, op=name, phase="backward")


def is_anomaly_enabled():
    """Return ``True`` while this thread is inside :func:`detect_anomaly`."""
    return _tensor_core._THREAD.hooks.anomaly is not None


def detect_anomaly():
    """Context manager that pinpoints the op introducing a NaN/Inf.

    >>> with detect_anomaly():               # doctest: +SKIP
    ...     loss = model.training_loss(batch, rng)[0].total
    ...     loss.backward()
    AnomalyError: detect_anomaly: op 'log' produced a non-finite ...

    Per thread and nesting like :func:`no_grad`: ops on other threads
    are not checked, and the previous mode is restored on exit.
    """
    return _tensor_core._installed(anomaly=_check)
