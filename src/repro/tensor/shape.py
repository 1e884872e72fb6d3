"""Shape-manipulation operations with gradients."""

from __future__ import annotations

import numpy as np

from repro.tensor import tensor as _core
from repro.tensor.tensor import Tensor, as_tensor


def _record_view_or_copy(result, a, remake):
    """Register a replay record for a shape op.

    Shape ops produce either a *view* of their input (nothing to refresh
    — the buffer aliases the input, which the plan keeps fresh) or a
    fresh array, which replay refreshes by re-running ``remake`` into
    the output buffer.
    """
    rec = _core._THREAD.hooks.recorder
    if rec is None:
        return
    od, ad = result.data, a.data
    if od.base is not None and np.shares_memory(od, ad):
        rec.view(od, ad)
        return

    def refresh():
        od[...] = remake(ad)

    rec.run(refresh, reads=(ad,), writes=(od,))

__all__ = [
    "reshape",
    "transpose",
    "swapaxes",
    "flatten",
    "concat",
    "stack",
    "split",
    "getitem",
    "broadcast_to",
]


def reshape(a, shape):
    """Reshape to ``shape`` (supports one -1 wildcard like numpy)."""
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def backward(grad):
        a._accumulate_grad(grad.reshape(a.shape))

    result = Tensor._from_op(data, (a,), backward, name="reshape")
    _record_view_or_copy(result, a, lambda ad: ad.reshape(shape))
    return result


def transpose(a, axes=None):
    """Permute axes; ``axes=None`` reverses them (numpy semantics)."""
    a = as_tensor(a)
    data = np.transpose(a.data, axes)
    if axes is None:
        inverse = None
    else:
        inverse = np.argsort(axes)

    def backward(grad):
        a._accumulate_grad(np.transpose(grad, inverse))

    result = Tensor._from_op(data, (a,), backward, name="transpose")
    _record_view_or_copy(result, a, lambda ad: np.transpose(ad, axes))
    return result


def swapaxes(a, axis1, axis2):
    """Swap two axes."""
    a = as_tensor(a)
    axes = list(range(a.ndim))
    axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
    return transpose(a, axes)


def flatten(a, start_axis=0):
    """Collapse all axes from ``start_axis`` onward into one."""
    a = as_tensor(a)
    lead = a.shape[:start_axis]
    return reshape(a, lead + (-1,))


def concat(tensors, axis=0):
    """Concatenate tensors along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    boundaries = np.cumsum(sizes)[:-1]

    def backward(grad):
        pieces = np.split(grad, boundaries, axis=axis)
        for tensor, piece in zip(tensors, pieces):
            if tensor.requires_grad:
                tensor._accumulate_grad(piece)

    result = Tensor._from_op(data, tuple(tensors), backward, name="concat")
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        srcs = [t.data for t in tensors]
        od = result.data

        def refresh():
            np.concatenate(srcs, axis=axis, out=od)

        rec.run(refresh, reads=tuple(srcs), writes=(od,))
    return result


def stack(tensors, axis=0):
    """Stack tensors along a new axis."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        pieces = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            if tensor.requires_grad:
                tensor._accumulate_grad(np.squeeze(piece, axis=axis))

    result = Tensor._from_op(data, tuple(tensors), backward, name="stack")
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        srcs = [t.data for t in tensors]
        od = result.data

        def refresh():
            np.stack(srcs, axis=axis, out=od)

        rec.run(refresh, reads=tuple(srcs), writes=(od,))
    return result


def split(a, sections, axis=0):
    """Split into equal ``sections`` along ``axis``; returns a list."""
    a = as_tensor(a)
    size = a.shape[axis]
    if size % sections != 0:
        raise ValueError(f"axis of size {size} cannot be split into {sections} equal parts")
    step = size // sections
    pieces = []
    for i in range(sections):
        index = [slice(None)] * a.ndim
        index[axis] = slice(i * step, (i + 1) * step)
        pieces.append(getitem(a, tuple(index)))
    return pieces


def getitem(a, index):
    """Basic and integer-array indexing with gradient scatter-add."""
    a = as_tensor(a)
    data = a.data[index]

    def backward(grad):
        full = np.zeros_like(a.data)
        np.add.at(full, index, grad)
        a._accumulate_grad(full)

    result = Tensor._from_op(data, (a,), backward, name="getitem")
    _record_view_or_copy(result, a, lambda ad: ad[index])
    return result


def broadcast_to(a, shape):
    """Broadcast to ``shape``; backward sums over the broadcast axes."""
    from repro.tensor.ops import unbroadcast

    a = as_tensor(a)
    data = np.broadcast_to(a.data, shape).copy()

    def backward(grad):
        a._accumulate_grad(unbroadcast(grad, a.shape))

    result = Tensor._from_op(data, (a,), backward, name="broadcast_to")
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        ad, od = a.data, result.data

        def refresh():
            np.copyto(od, ad)

        rec.run(refresh, reads=(ad,), writes=(od,))
    return result
