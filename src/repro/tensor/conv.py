"""2-D convolution and pooling with gradients.

:func:`conv2d` is an im2col convolution in a *K-major* layout.  The
forward pass takes the receptive fields of the (padded) input as a
zero-copy ``sliding_window_view`` and packs them, with one
``np.copyto``, into a scratch buffer of shape
``(C_in, KH, KW, N, H', W')``: the contracted axes lead, in the
weight's own ``(C_in, KH, KW)`` order, and the output positions trail.
The layout is chosen for the copy, which at the small spatial grids of
this library costs more than the GEMM:

- the pack's innermost runs are whole output rows, ``W'`` elements
  that are contiguous in the input when the stride is 1.  A row-major
  ``(N, H', W', C_in, KH, KW)`` pack instead walks ``KW``-element
  kernel rows of a transposed view, several times slower per element;
- the GEMM is ``weight.reshape(C_out, C_in*KH*KW) @ col`` against the
  weight as stored, so the weight is never repacked, and its
  ``(C_out, N, H', W')`` result is an NCHW view after one transpose.

The backward pass is two GEMMs.  The weight gradient is ``g @ colᵀ``
over the same layout (``g`` the output gradient as
``(C_out, N*H'*W')``).  The input gradient is a transposed
convolution run as a forward one: the output gradient, dilated by the
stride and zero-padded by ``k - 1 - p`` on each side (cropped where
that is negative, i.e. padding >= kernel size), is correlated at
stride 1 with the kernel flipped in both spatial axes and its channel
axes swapped — one K-major pack of ``(C_out, KH, KW, N, H, W)`` and
one GEMM, instead of a ``dcol`` GEMM scattered back by ``KH*KW``
strided slab adds into a fresh zeroed array.  Every workspace (im2col,
GEMM output, padded gradient, flipped kernel) comes from a
:class:`~repro.tensor.scratch.ScratchPool` and is reused across calls.
A pooled buffer is shared by every conv of the same shape, so the
backward repacks ``col`` from the window view it keeps (a later conv
may have overwritten the buffer) instead of holding a private copy on
the tape, and zeroes the padded gradient on every call (convs with
another padding or stride place their gradient elsewhere in it).

Under an active :mod:`repro.compile` recorder every op additionally
registers an in-place refresh kernel so a compiled plan can recompute
the output buffers without rebuilding the graph.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.tensor import tensor as _core
from repro.tensor.scratch import default_pool
from repro.tensor.tensor import Tensor, as_tensor, is_grad_enabled

__all__ = ["conv2d", "avg_pool2d", "max_pool2d", "global_avg_pool2d"]


def _pair(value):
    """Coerce an int or 2-tuple to a (h, w) pair."""
    if isinstance(value, int):
        return (value, value)
    return tuple(value)


def conv2d(x, weight, bias=None, stride=1, padding=0, scratch=None):
    """Cross-correlate ``x`` with ``weight`` (the deep-learning "conv").

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Kernel of shape ``(C_out, C_in, KH, KW)``.
    bias:
        Optional per-output-channel bias of shape ``(C_out,)``.
    stride, padding:
        Ints or (h, w) pairs; padding is symmetric zero padding.
    scratch:
        Optional :class:`~repro.tensor.scratch.ScratchPool` providing
        the im2col and GEMM workspaces.  Defaults to the thread's
        shared pool (or the private pool of a compile recorder active
        on this thread), so repeated same-shape calls allocate no new
        scratch.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input has {c_in} channels but kernel expects {c_in_w}")

    recorder = _core._THREAD.hooks.recorder
    pool = scratch
    if pool is None:
        # A compiled plan's kernels capture scratch buffers by
        # reference, so recording must draw from the recorder's private
        # pool, never the shared thread-local one.
        pool = recorder.scratch if recorder is not None else default_pool()

    if ph or pw:
        # Bitwise what np.pad builds, without its per-call overhead.
        # Fresh per call: the backward's window view keeps it alive.
        x_pad = np.zeros((n, c_in, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        inner = x_pad[:, :, ph:ph + h, pw:pw + w]
        inner[...] = x.data
    else:
        x_pad, inner = x.data, None
    h_out = (h + 2 * ph - kh) // sh + 1
    w_out = (w + 2 * pw - kw) // sw + 1

    # (C_in, KH, KW, N, H', W') view of all receptive fields.
    win_t = sliding_window_view(x_pad, (kh, kw), axis=(2, 3))[
        :, :, ::sh, ::sw].transpose(1, 4, 5, 0, 2, 3)
    ck = c_in * kh * kw
    rows = n * h_out * w_out
    dt = np.result_type(x.dtype, weight.dtype)
    col = pool.get("conv2d.col", (c_in, kh, kw, n, h_out, w_out), dt)
    gemm_out = pool.get("conv2d.gemm", (c_out, rows), dt)
    col2 = col.reshape(ck, rows)
    np.copyto(col, win_t)
    np.matmul(weight.data.reshape(c_out, ck), col2, out=gemm_out)
    # (C_out, N, H', W') -> (N, C_out, H', W') view over the GEMM output.
    result_t = gemm_out.reshape(c_out, n, h_out, w_out).transpose(1, 0, 2, 3)

    parents = [x, weight]
    bias_t = None
    if bias is not None:
        bias_t = as_tensor(bias)
        out = result_t + bias_t.data[None, :, None, None]
        parents.append(bias_t)
    else:
        # A copy even when the view is already contiguous (N == 1): the
        # result must never alias the pooled GEMM buffer.
        out = result_t.copy()

    def backward(grad):
        # (N, C_out, H', W') -> (C_out, N*H'*W'), the GEMM's layout.
        g2 = grad.transpose(1, 0, 2, 3).reshape(c_out, rows)
        if weight.requires_grad:
            # Repack: a later same-shape conv may own the buffer now.
            np.copyto(col, win_t)
            grad_w = np.matmul(g2, col2.T)
            weight._accumulate_grad(grad_w.reshape(weight.shape))
        if x.requires_grad:
            # The weight GEMM is done: its pooled buffers are free.
            x._accumulate_grad(_input_grad(grad, weight.data, pool, dt,
                                           (sh, sw), (ph, pw), (h, w)))
        if bias_t is not None and bias_t.requires_grad:
            bias_t._accumulate_grad(grad.sum(axis=(0, 2, 3)))

    result = Tensor._from_op(out, tuple(parents), backward, name="conv2d")

    if recorder is not None:
        # In-place refresh: re-pad the captured x_pad interior, repack
        # the pooled col (shared across same-shape convs), one GEMM,
        # then write the output buffer.  Zero allocations.
        x_d, w_d = x.data, weight.data
        b_d = bias_t.data if bias_t is not None else None
        out_d = result.data
        reads = (x_d, w_d) if b_d is None else (x_d, w_d, b_d)

        def refresh():
            if inner is not None:
                inner[...] = x_d
            np.copyto(col, win_t)
            np.matmul(w_d.reshape(c_out, ck), col2, out=gemm_out)
            if b_d is not None:
                np.add(result_t, b_d[None, :, None, None], out=out_d)
            else:
                np.copyto(out_d, result_t)

        recorder.run(refresh, reads=reads, writes=(out_d,))

    return result


def _input_grad(grad, weight, pool, dt, stride, padding, size):
    """conv2d's input gradient as one stride-1 correlation.

    Returns an ``(N, C_in, H, W)`` view over a pooled GEMM buffer, valid
    until the next conv on the pool.  Output gradient row ``i`` lands
    at padded row ``k - 1 - p + i*s``; rows outside ``[0, H + KH - 1)``
    belong to windows lying wholly in the input's zero padding and are
    cropped.
    """
    n, c_out, h_out, w_out = grad.shape
    _, c_in, kh, kw = weight.shape
    (sh, sw), (ph, pw), (h, w) = stride, padding, size
    hp, wp = h + kh - 1, w + kw - 1
    gpad = pool.get("conv2d.gpad", (n, c_out, hp, wp), dt)
    gpad.fill(0)
    top, left = kh - 1 - ph, kw - 1 - pw
    i0, i1 = max(0, -(top // sh)), min(h_out, -((top - hp) // sh))
    j0, j1 = max(0, -(left // sw)), min(w_out, -((left - wp) // sw))
    if i1 > i0 and j1 > j0:
        r0, c0 = top + i0 * sh, left + j0 * sw
        np.copyto(gpad[:, :, r0:r0 + (i1 - i0 - 1) * sh + 1:sh,
                       c0:c0 + (j1 - j0 - 1) * sw + 1:sw],
                  grad[:, :, i0:i1, j0:j1])
    flipped = pool.get("conv2d.wflip", (c_in, c_out, kh, kw), dt)
    np.copyto(flipped, weight.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
    col = pool.get("conv2d.col", (c_out, kh, kw, n, h, w), dt)
    np.copyto(col, sliding_window_view(gpad, (kh, kw), axis=(2, 3))
              .transpose(1, 4, 5, 0, 2, 3))
    ck = c_out * kh * kw
    gemm = pool.get("conv2d.gemm", (c_in, n * h * w), dt)
    np.matmul(flipped.reshape(c_in, ck), col.reshape(ck, n * h * w),
              out=gemm)
    return gemm.reshape(c_in, n, h, w).transpose(1, 0, 2, 3)


def avg_pool2d(x, kernel_size, stride=None):
    """Average pooling over non-overlapping or strided windows."""
    x = as_tensor(x)
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride if stride is not None else kernel_size)
    n, c, h, w = x.shape
    h_out = (h - kh) // sh + 1
    w_out = (w - kw) // sw + 1
    windows = sliding_window_view(x.data, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    out = windows.mean(axis=(4, 5))
    scale = 1.0 / (kh * kw)

    def backward(grad):
        grad_x = np.zeros_like(x.data)
        for p in range(kh):
            for q in range(kw):
                grad_x[:, :, p:p + h_out * sh:sh, q:q + w_out * sw:sw] += grad * scale
        x._accumulate_grad(grad_x)

    result = Tensor._from_op(out, (x,), backward, name="avg_pool2d")

    recorder = _core._THREAD.hooks.recorder
    if recorder is not None:
        x_d, out_d = x.data, result.data

        def refresh():
            # ``windows`` is a strided view over x.data: auto-fresh.
            np.mean(windows, axis=(4, 5), out=out_d)

        recorder.run(refresh, reads=(x_d,), writes=(out_d,))
    return result


def max_pool2d(x, kernel_size, stride=None):
    """Max pooling; ties split the gradient evenly.

    The 6-D tie mask and gradient-share arrays (``kh * kw`` times the
    input's footprint) are only materialised when a backward closure
    will actually be recorded — under ``no_grad()`` or for detached
    inputs the forward allocates nothing beyond the pooled output.
    """
    x = as_tensor(x)
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride if stride is not None else kernel_size)
    n, c, h, w = x.shape
    h_out = (h - kh) // sh + 1
    w_out = (w - kw) // sw + 1
    windows = sliding_window_view(x.data, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    out = windows.max(axis=(4, 5))

    backward = None
    mask = counts = share = None
    if is_grad_enabled() and x.requires_grad:
        mask = windows == out[..., None, None]
        counts = mask.sum(axis=(4, 5), keepdims=True)
        share = mask / counts

        def backward(grad):
            grad_x = np.zeros_like(x.data)
            weighted = grad[..., None, None] * share
            for p in range(kh):
                for q in range(kw):
                    grad_x[:, :, p:p + h_out * sh:sh, q:q + w_out * sw:sw] += weighted[..., p, q]
            x._accumulate_grad(grad_x)

    result = Tensor._from_op(out, (x,), backward, name="max_pool2d")

    recorder = _core._THREAD.hooks.recorder
    if recorder is not None:
        x_d, out_d = x.data, result.data

        def refresh():
            np.max(windows, axis=(4, 5), out=out_d)
            if mask is not None:
                np.equal(windows, out_d[..., None, None], out=mask)
                counts[...] = mask.sum(axis=(4, 5), keepdims=True)
                np.divide(mask, counts, out=share)

        recorder.run(refresh, reads=(x_d,), writes=(out_d,))
    return result


def global_avg_pool2d(x):
    """Average over the spatial dims, returning ``(N, C)``."""
    from repro.tensor.reductions import mean

    return mean(x, axis=(2, 3))
