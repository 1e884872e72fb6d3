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
    "pad",
    "broadcast_to",
    "squeeze",
    "expand_dims",
    "flip",
    "repeat_interleave",
    "tile",
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


def pad(a, pad_width, value=0.0):
    """Constant-pad; ``pad_width`` follows ``numpy.pad`` conventions."""
    a = as_tensor(a)
    data = np.pad(a.data, pad_width, mode="constant", constant_values=value)
    norm = np.asarray(
        np.broadcast_to(np.asarray(pad_width, dtype=int).reshape(-1, 2)
                        if np.asarray(pad_width).ndim > 1
                        else np.tile(np.asarray(pad_width, dtype=int), (a.ndim, 1)),
                        (a.ndim, 2))
    )
    slices = tuple(
        slice(before, dim + before) for (before, _after), dim in zip(norm, a.shape)
    )

    def backward(grad):
        a._accumulate_grad(grad[slices])

    result = Tensor._from_op(data, (a,), backward, name="pad")
    rec = _core._THREAD.hooks.recorder
    if rec is not None:
        ad, od = a.data, result.data
        inner = od[slices]

        def refresh():
            # The pad region is constant since record; only the
            # interior tracks the input.
            inner[...] = ad

        rec.run(refresh, reads=(ad,), writes=(od,))
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


def squeeze(a, axis=None):
    """Remove size-1 axes."""
    a = as_tensor(a)
    return reshape(a, np.squeeze(a.data, axis=axis).shape)


def expand_dims(a, axis):
    """Insert a size-1 axis at ``axis``."""
    a = as_tensor(a)
    return reshape(a, np.expand_dims(a.data, axis).shape)


def flip(a, axis):
    """Reverse along ``axis``."""
    a = as_tensor(a)
    data = np.flip(a.data, axis=axis)

    def backward(grad):
        a._accumulate_grad(np.flip(grad, axis=axis))

    result = Tensor._from_op(data, (a,), backward, name="flip")
    _record_view_or_copy(result, a, lambda ad: np.flip(ad, axis=axis))
    return result


def repeat_interleave(a, repeats, axis):
    """Repeat each element ``repeats`` times along ``axis``."""
    a = as_tensor(a)
    data = np.repeat(a.data, repeats, axis=axis)

    def backward(grad):
        new_shape = list(a.shape)
        new_shape[axis:axis + 1] = [a.shape[axis], repeats]
        a._accumulate_grad(grad.reshape(new_shape).sum(axis=axis + 1))

    result = Tensor._from_op(data, (a,), backward, name="repeat_interleave")
    _record_view_or_copy(result, a, lambda ad: np.repeat(ad, repeats, axis=axis))
    return result


def tile(a, reps):
    """Tile like ``numpy.tile`` (gradient folds the copies back)."""
    from repro.tensor.ops import unbroadcast

    a = as_tensor(a)
    reps = tuple(reps) if np.iterable(reps) else (reps,)
    data = np.tile(a.data, reps)

    # Tiling is a broadcast of a reshaped input: fold the gradient by
    # reshaping into (rep, dim) pairs and summing the rep axes.
    full_reps = (1,) * (data.ndim - len(reps)) + reps
    in_shape = (1,) * (data.ndim - a.ndim) + a.shape

    def backward(grad):
        shape = []
        for rep, dim in zip(full_reps, in_shape):
            shape.extend([rep, dim])
        folded = grad.reshape(shape)
        folded = folded.sum(axis=tuple(range(0, folded.ndim, 2)))
        a._accumulate_grad(unbroadcast(folded, a.shape))

    result = Tensor._from_op(data, (a,), backward, name="tile")
    _record_view_or_copy(result, a, lambda ad: np.tile(ad, reps))
    return result
