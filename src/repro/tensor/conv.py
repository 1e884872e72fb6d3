"""2-D convolution and global average pooling with gradients.

:func:`conv2d` is an im2col convolution in a *K-major* layout.  The
forward pass takes the receptive fields of the (padded) input as a
zero-copy view, by stride arithmetic, and packs them, with one
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
:class:`~repro.tensor.scratch.ScratchPool`, which also keeps the views
onto them that a call signature (shapes, stride, padding, dtypes) fixes,
so a warm call pays only for its pad, copies and GEMMs.  A pooled
``col`` is shared by every conv of its shape, so the backward repacks
it from the window view it keeps.  The padded gradient is the
signature's own, zeroed once: every call writes the same positions.

Under an active :mod:`repro.compile` recorder every op additionally
registers an in-place refresh kernel so a compiled plan can recompute
the output buffers without rebuilding the graph.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.tensor import tensor as _core
from repro.tensor.scratch import default_pool
from repro.tensor.tensor import Tensor, as_tensor

__all__ = ["conv2d", "global_avg_pool2d"]


def _pair(value):
    """Coerce an int or 2-tuple to a (h, w) pair."""
    if isinstance(value, int):
        return (value, value)
    return tuple(value)


def _windows(src, shape, stride):
    """Read-only K-major view of ``src``'s receptive fields, no copy:
    ``(c, i, j, b, y, z)`` is ``src[b, c, y*sh + i, z*sw + j]``."""
    s0, s1, s2, s3 = src.strides
    strides = (s1, s2, s3, s0, s2 * stride[0], s3 * stride[1])
    if not src.flags.c_contiguous:
        return as_strided(src, shape, strides, writeable=False)
    view = np.ndarray(shape, src.dtype, buffer=src, strides=strides)
    view.flags.writeable = False
    return view


def _workspace(pool, kind, signature, *args):
    """``kind(pool, signature, *args)``, built once per signature on
    ``pool``; each call counts its bytes as requested, as ``get`` does."""
    key = (kind, signature)
    ws = pool._signatures.get(key)
    if ws is None:
        ws = pool._signatures[key] = kind(pool, signature, *args)
    else:
        pool.requested_bytes += ws.nbytes
    return ws


class _Forward:
    """The forward's pooled ``col`` and GEMM buffers, with their views."""

    def __init__(self, pool, signature):
        (n, c_in, h, w), (c_out, _, kh, kw), sh, sw, ph, pw, *dts = signature
        h_out, w_out = (h + 2*ph - kh) // sh + 1, (w + 2*pw - kw) // sw + 1
        dt = np.result_type(*dts)
        self.col = pool.get("conv2d.col", (c_in, kh, kw, n, h_out, w_out), dt)
        self.col2 = self.col.reshape(c_in * kh * kw, -1)
        self.gemm = pool.get("conv2d.gemm", (c_out, self.col2.shape[1]), dt)
        # (C_out, N, H', W') -> (N, C_out, H', W') view over the GEMM output.
        self.result = self.gemm.reshape(c_out, n, h_out, w_out).swapaxes(0, 1)
        self.nbytes = self.col.nbytes + self.gemm.nbytes


class _InputGrad:
    """The input gradient, a transposed conv, of one forward signature.

    Output gradient row ``i`` lands at padded row ``k - 1 - p + i*s``;
    rows outside ``[0, H + KH - 1)`` see only zero padding: cropped.
    """

    def __init__(self, pool, signature, grad_shape):
        (n, c_in, h, w), (c_out, _, kh, kw), sh, sw, ph, pw, *dts = signature
        (h_out, w_out), dt = grad_shape[2:], np.result_type(*dts)
        hp, wp = h + kh - 1, w + kw - 1
        gpad = pool.get(("conv2d.gpad", signature), (n, c_out, hp, wp), dt)
        gpad.fill(0)
        top, left = kh - 1 - ph, kw - 1 - pw
        i0, i1 = max(0, -(top // sh)), min(h_out, -((top - hp) // sh))
        j0, j1 = max(0, -(left // sw)), min(w_out, -((left - wp) // sw))
        i1, j1 = max(i0, i1), max(j0, j1)  # all cropped: empty slices
        r0, c0 = top + i0 * sh, left + j0 * sw
        self.src = np.s_[:, :, i0:i1, j0:j1]
        self.dst = gpad[:, :, r0:r0 + (i1 - i0) * sh:sh,
                        c0:c0 + (j1 - j0) * sw:sw]
        self.flipped = pool.get("conv2d.wflip", (c_in, c_out, kh, kw), dt)
        self.col = pool.get("conv2d.col", (c_out, kh, kw, n, h, w), dt)
        self.gemm = pool.get("conv2d.gemm", (c_in, n * h * w), dt)
        self.windows = _windows(gpad, self.col.shape, (1, 1))
        self.flipped2 = self.flipped.reshape(c_in, -1)
        self.col2 = self.col.reshape(self.flipped2.shape[1], -1)
        self.result = self.gemm.reshape(c_in, n, h, w).swapaxes(0, 1)
        self.nbytes = sum(a.nbytes for a in (gpad, self.flipped, self.col,
                                             self.gemm))

    def __call__(self, grad, weight):
        """``(N, C_in, H, W)``, a view valid until the pool's next conv."""
        np.copyto(self.dst, grad[self.src])
        np.copyto(self.flipped, weight.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
        np.copyto(self.col, self.windows)
        np.matmul(self.flipped2, self.col2, out=self.gemm)
        return self.result


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
    signature = (x.shape, weight.shape, sh, sw, ph, pw, x.dtype, weight.dtype)
    ws = _workspace(pool, _Forward, signature)

    if ph or pw:
        # Bitwise what np.pad builds, without its per-call overhead.
        # Fresh per call: the backward's window view keeps it alive.
        x_pad = np.zeros((n, c_in, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        inner = x_pad[:, :, ph:ph + h, pw:pw + w]
        inner[...] = x.data
    else:
        x_pad, inner = x.data, None

    win_t = _windows(x_pad, ws.col.shape, (sh, sw))
    np.copyto(ws.col, win_t)
    np.matmul(weight.data.reshape(c_out, -1), ws.col2, out=ws.gemm)

    parents = [x, weight]
    bias_t = None
    if bias is not None:
        bias_t = as_tensor(bias)
        out = ws.result + bias_t.data[None, :, None, None]
        parents.append(bias_t)
    else:
        # A copy even when the view is already contiguous (N == 1): the
        # result must never alias the pooled GEMM buffer.
        out = ws.result.copy()

    def backward(grad):
        # (N, C_out, H', W') -> (C_out, N*H'*W'), the GEMM's layout.
        g2 = grad.transpose(1, 0, 2, 3).reshape(c_out, -1)
        if weight.requires_grad:
            # Repack: a later same-shape conv may own the buffer now.
            np.copyto(ws.col, win_t)
            grad_w = np.matmul(g2, ws.col2.T)
            weight._accumulate_grad(grad_w.reshape(weight.shape))
        if x.requires_grad:
            # The weight GEMM is done: its pooled buffers are free.
            input_grad = _workspace(pool, _InputGrad, signature, grad.shape)
            x._accumulate_grad(input_grad(grad, weight.data))
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
            np.copyto(ws.col, win_t)
            np.matmul(w_d.reshape(c_out, -1), ws.col2, out=ws.gemm)
            if b_d is not None:
                np.add(ws.result, b_d[None, :, None, None], out=out_d)
            else:
                np.copyto(out_d, ws.result)

        recorder.run(refresh, reads=reads, writes=(out_d,))

    return result


def global_avg_pool2d(x):
    """Average over the spatial dims, returning ``(N, C)``."""
    from repro.tensor.reductions import mean

    return mean(x, axis=(2, 3))
