"""conv2d: the K-major im2col kernel and its pooled scratch.

Two references pin the kernel down:

- ``fresh_conv2d`` runs the same K-major GEMM with throwaway arrays, so
  pooling must not change a single bit (atol 0);
- ``previous_conv2d`` / ``previous_conv2d_grads`` are the kernel this
  one replaced — a ``(rows, ck) x (ck, C_out)`` GEMM forward and a
  per-offset ``tensordot`` backward with a col2im scatter of the input
  gradient.  They contract in another operand order, so they agree to
  float tolerance, not bitwise.
"""

import tracemalloc

import numpy as np
import numpy.lib.stride_tricks as stride_tricks
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import repro.tensor.conv as conv_module
from repro.tensor import Tensor, no_grad
from repro.tensor.conv import conv2d
from repro.tensor.scratch import ScratchPool, default_pool


def _pad_and_windows(x, kh, kw, stride, padding):
    sh, sw = (stride, stride) if isinstance(stride, int) else stride
    ph, pw = (padding, padding) if isinstance(padding, int) else padding
    x_pad = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x
    windows = sliding_window_view(x_pad, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    return x_pad, windows, (sh, sw), (ph, pw)


def fresh_conv2d(x, weight, bias=None, stride=1, padding=0):
    """The K-major im2col GEMM of ``conv2d`` with freshly allocated arrays."""
    c_out, c_in, kh, kw = weight.shape
    _, windows, _, _ = _pad_and_windows(x, kh, kw, stride, padding)
    n, _, h_out, w_out = windows.shape[:4]
    col = np.ascontiguousarray(windows.transpose(1, 4, 5, 0, 2, 3))
    col = col.reshape(c_in * kh * kw, n * h_out * w_out)
    out = weight.reshape(c_out, -1) @ col
    out = out.reshape(c_out, n, h_out, w_out).transpose(1, 0, 2, 3)
    if bias is not None:
        out = out + bias[None, :, None, None]
    return np.ascontiguousarray(out)


def previous_conv2d(x, weight, bias=None, stride=1, padding=0):
    """Forward of the replaced kernel: ``(rows, ck) x (ck, C_out)``."""
    c_out, c_in, kh, kw = weight.shape
    _, windows, _, _ = _pad_and_windows(x, kh, kw, stride, padding)
    n, _, h_out, w_out = windows.shape[:4]
    col = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
    col = col.reshape(n * h_out * w_out, c_in * kh * kw)
    w_packed = np.ascontiguousarray(weight.transpose(1, 2, 3, 0))
    w_packed = w_packed.reshape(c_in * kh * kw, c_out)
    out = (col @ w_packed).reshape(n, h_out, w_out, c_out).transpose(0, 3, 1, 2)
    if bias is not None:
        out = out + bias[None, :, None, None]
    return np.ascontiguousarray(out)


def previous_conv2d_grads(x, weight, grad, stride=1, padding=0):
    """Backward of the replaced kernel: ``(grad_x, grad_w, grad_b)``."""
    c_out, c_in, kh, kw = weight.shape
    n, _, h, w = x.shape
    x_pad, windows, (sh, sw), (ph, pw) = _pad_and_windows(
        x, kh, kw, stride, padding)
    h_out, w_out = grad.shape[2:]
    grad_w = np.tensordot(grad, windows, axes=([0, 2, 3], [0, 2, 3]))
    grad_pad = np.zeros_like(x_pad)
    for p in range(kh):
        for q in range(kw):
            contrib = np.tensordot(grad, weight[:, :, p, q], axes=([1], [0]))
            grad_pad[:, :, p:p + h_out * sh:sh, q:q + w_out * sw:sw] += \
                contrib.transpose(0, 3, 1, 2)
    grad_x = grad_pad[:, :, ph:ph + h, pw:pw + w]
    return grad_x, grad_w, grad.sum(axis=(0, 2, 3))


@pytest.fixture
def rng():
    return np.random.default_rng(7)


CASES = [
    # (stride, padding, bias)
    (1, 0, False),
    (1, 1, True),
    (2, 1, False),
    ((1, 2), (2, 0), True),
]

# (kernel, stride, padding, bias, x requires grad, (C_in, C_out))
GRAD_CASES = [(3, s, p, b, True, (4, 5)) for s, p, b in CASES] + [
    (1, 1, 0, True, True, (4, 5)),    # 1x1 kernel: the im2col is a transpose
    (3, 1, 1, True, False, (4, 5)),   # input without grad: weight/bias only
    (3, 2, 1, True, True, (3, 16)),   # C_out > C_in: channel axes swapped
    (1, 1, 1, False, True, (4, 5)),   # padding >= kernel: gradient cropped
    (1, 13, 3, True, True, (4, 5)),   # every output in the padding: all cropped
]


def _grad_case_id(index, case):
    """pytest's id for the first five fields, then any non-(4, 5) channels.

    Keeps the ids the cases had before they carried channel counts.
    """
    names = ("k", "stride", "padding", "use_bias", "x_grad")
    parts = [str(v) if isinstance(v, (int, bool)) else f"{name}{index}"
             for name, v in zip(names, case)]
    if case[5] != (4, 5):
        parts.append("c{}to{}".format(*case[5]))
    return "-".join(parts)


GRAD_IDS = [_grad_case_id(i, case) for i, case in enumerate(GRAD_CASES)]

# Set from the input scale, not from observed errors: inputs are
# standard normal, so outputs reach ~10 and weight gradients ~100.
F32_TOL = dict(rtol=1e-5, atol=1e-4)


def _run_conv(x, w, b, upstream, stride, padding, x_grad=True):
    """conv2d output and (grad_x, grad_w, grad_b) for ``sum(out * upstream)``."""
    xt = Tensor(x.copy(), requires_grad=x_grad)
    wt = Tensor(w.copy(), requires_grad=True)
    bt = None if b is None else Tensor(b.copy(), requires_grad=True)
    out = conv2d(xt, wt, bt, stride=stride, padding=padding)
    (out * Tensor(upstream)).sum().backward()
    return out.data, xt.grad, wt.grad, None if bt is None else bt.grad


class TestBitwiseEquality:
    @pytest.mark.parametrize("stride,padding,use_bias", CASES)
    def test_matches_tensordot_reference(self, rng, stride, padding,
                                         use_bias):
        x = rng.standard_normal((3, 4, 9, 8))
        w = rng.standard_normal((5, 4, 3, 3))
        b = rng.standard_normal(5) if use_bias else None
        with no_grad():
            got = conv2d(Tensor(x), Tensor(w),
                         None if b is None else Tensor(b),
                         stride=stride, padding=padding)
        expected = fresh_conv2d(x, w, b, stride=stride, padding=padding)
        np.testing.assert_array_equal(got.data, expected)
        # Cross-check against tensordot (different operand order: ULPs).
        _, windows, _, _ = _pad_and_windows(x, 3, 3, stride, padding)
        loose = np.tensordot(windows, w,
                             axes=([1, 4, 5], [1, 2, 3])).transpose(0, 3, 1, 2)
        if b is not None:
            loose = loose + b[None, :, None, None]
        np.testing.assert_allclose(got.data, loose, atol=1e-12)

    def test_explicit_pool_matches_default(self, rng):
        x = rng.standard_normal((2, 3, 7, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        pool = ScratchPool()
        with no_grad():
            via_default = conv2d(Tensor(x), Tensor(w), padding=1).data
            via_explicit = conv2d(Tensor(x), Tensor(w), padding=1,
                                  scratch=pool).data
        np.testing.assert_array_equal(via_default, via_explicit)
        # The explicit pool now holds the im2col and GEMM workspaces.
        assert len(pool) == 2
        assert {tag for tag, _, _ in pool._buffers} == {
            "conv2d.col", "conv2d.gemm"}

    def test_gradients_match_with_and_without_pool(self, rng):
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)

        def run(**kwargs):
            xt = Tensor(x.copy(), requires_grad=True)
            wt = Tensor(w.copy(), requires_grad=True)
            bt = Tensor(b.copy(), requires_grad=True)
            out = conv2d(xt, wt, bt, stride=1, padding=1, **kwargs)
            (out * out).mean().backward()
            return xt.grad.copy(), wt.grad.copy(), bt.grad.copy()

        for a, c in zip(run(), run(scratch=ScratchPool())):
            np.testing.assert_array_equal(a, c)

    def test_backward_repacks_overwritten_col(self, rng):
        """Regression: two same-shape convs share the pooled ``col``, so
        the second forward overwrites it before the first backward runs
        (and the second backward reuses it for its input gradient).
        Each backward must repack from its own windows."""
        x = rng.standard_normal((2, 3, 6, 6))
        w1 = rng.standard_normal((3, 3, 3, 3))
        w2 = rng.standard_normal((3, 3, 3, 3))

        def run(first, second):
            xt = Tensor(x.copy(), requires_grad=True)
            w1t = Tensor(w1.copy(), requires_grad=True)
            w2t = Tensor(w2.copy(), requires_grad=True)
            hidden = conv2d(xt, w1t, padding=1, scratch=first)
            out = conv2d(hidden, w2t, padding=1, scratch=second)
            (out * out).sum().backward()
            return xt.grad, w1t.grad, w2t.grad

        shared = ScratchPool()
        got = run(shared, shared)
        # One col and one GEMM buffer serve both convs' forwards and
        # input gradients; plus the padded gradient and flipped kernel.
        assert len(shared) == 4
        expected = run(ScratchPool(), ScratchPool())
        for a, c in zip(got, expected):
            np.testing.assert_array_equal(a, c)

    def test_padded_gradient_is_zeroed_on_every_call(self, rng):
        """Two convs whose padded output gradients have one shape but
        place their entries differently: padding 1 fills rows 1-6 and
        columns 1-10 of it, padding 0 only rows 2-5 and columns 2-9.
        The second backward must see zeros, not the first one's
        border."""
        x = rng.standard_normal((8, 16, 6, 10))
        w = rng.standard_normal((16, 16, 3, 3))

        def run(pool_for):
            grads = []
            for padding in (1, 0):
                xt = Tensor(x.copy(), requires_grad=True)
                wt = Tensor(w.copy(), requires_grad=True)
                out = conv2d(xt, wt, padding=padding, scratch=pool_for())
                (out * out).sum().backward()
                grads += [xt.grad, wt.grad]
            return grads

        shared = ScratchPool()
        got = run(lambda: shared)
        # One padded gradient per signature: same shape, own zeros.
        gpads = [shape for tag, shape, _ in shared._buffers
                 if tag[0] == "conv2d.gpad"]
        assert gpads == [(8, 16, 8, 12)] * 2
        expected = run(ScratchPool)
        for a, c in zip(got, expected):
            np.testing.assert_array_equal(a, c)

    def test_padded_gradients_of_one_shape_keep_their_own_zeros(self, rng):
        """A kernel-3 conv on 6x10 and a kernel-5 conv on 4x8, both at
        padding 1, pad their output gradients to one shape, (2, 3, 8,
        12), but place them at offsets 1 and 3.  Interleaved A, B, A, B
        on one pool (each then runs after the other's first call), every
        result must equal an own-pool run bitwise."""
        shapes = {"A": ((2, 4, 6, 10), (3, 4, 3, 3)),
                  "B": ((2, 4, 4, 8), (3, 4, 5, 5))}
        arrays = {name: (rng.standard_normal(x_shape),
                         rng.standard_normal(w_shape))
                  for name, (x_shape, w_shape) in shapes.items()}

        def run(name, pool):
            x, w = arrays[name]
            xt = Tensor(x.copy(), requires_grad=True)
            wt = Tensor(w.copy(), requires_grad=True)
            out = conv2d(xt, wt, padding=1, scratch=pool)
            (out * out).sum().backward()
            return out.data, xt.grad, wt.grad

        shared = ScratchPool()
        for name in "ABAB":
            for a, c in zip(run(name, shared), run(name, ScratchPool())):
                np.testing.assert_array_equal(a, c)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k,stride,padding,use_bias,x_grad,channels",
                             GRAD_CASES, ids=GRAD_IDS)
    def test_forward_is_the_same_in_every_mode(self, rng, dtype, k, stride,
                                               padding, use_bias, x_grad,
                                               channels):
        """A no-grad and a grad-mode forward on the thread's pool (the
        second followed by its backward) and an explicit-pool forward
        share a signature: all equal the fresh-array kernel bitwise."""
        c_in, c_out = channels
        x = rng.standard_normal((3, c_in, 9, 8)).astype(dtype)
        w = rng.standard_normal((c_out, c_in, k, k)).astype(dtype)
        b = rng.standard_normal(c_out).astype(dtype) if use_bias else None

        def forward(**kwargs):
            out = conv2d(Tensor(x, requires_grad=x_grad),
                         Tensor(w, requires_grad=True),
                         None if b is None else Tensor(b, requires_grad=True),
                         stride=stride, padding=padding, **kwargs)
            return out, out.data.copy()

        with no_grad():
            _, quiet = forward()
        tracked, tracked_data = forward()
        tracked.sum().backward()
        _, explicit = forward(scratch=ScratchPool())
        expected = fresh_conv2d(x, w, b, stride=stride, padding=padding)
        for got in (quiet, tracked_data, explicit):
            np.testing.assert_array_equal(got, expected)

    def test_noncontiguous_unpadded_input(self, rng):
        """An unpadded input that is a transposed view has no contiguous
        buffer to view: output and gradients equal a contiguous copy's."""
        x = rng.standard_normal((2, 7, 9, 4)).transpose(0, 3, 1, 2)
        w = rng.standard_normal((5, 4, 3, 3))
        upstream = rng.standard_normal((2, 5, 5, 4))
        assert not x.flags.c_contiguous

        def run(data):
            xt = Tensor(data, requires_grad=True)
            wt = Tensor(w.copy(), requires_grad=True)
            out = conv2d(xt, wt, stride=(1, 2))
            (out * Tensor(upstream)).sum().backward()
            return out.data, xt.grad, wt.grad

        got = run(x)
        np.testing.assert_array_equal(got[0], fresh_conv2d(x, w, stride=(1, 2)))
        for a, c in zip(got, run(np.ascontiguousarray(x))):
            np.testing.assert_array_equal(a, c)


class TestMatchesPreviousKernel:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k,stride,padding,use_bias,x_grad,channels",
                             GRAD_CASES, ids=GRAD_IDS)
    def test_output_and_gradients(self, rng, dtype, k, stride, padding,
                                  use_bias, x_grad, channels):
        c_in, c_out = channels
        x = rng.standard_normal((3, c_in, 9, 8)).astype(dtype)
        w = rng.standard_normal((c_out, c_in, k, k)).astype(dtype)
        b = rng.standard_normal(c_out).astype(dtype) if use_bias else None
        expected = previous_conv2d(x, w, b, stride=stride, padding=padding)
        upstream = rng.standard_normal(expected.shape).astype(dtype)
        out, grad_x, grad_w, grad_b = _run_conv(
            x, w, b, upstream, stride, padding, x_grad=x_grad)
        ref_x, ref_w, ref_b = previous_conv2d_grads(
            x, w, upstream, stride=stride, padding=padding)

        tol = dict(rtol=0, atol=1e-12) if dtype == np.float64 else F32_TOL
        assert out.dtype == grad_w.dtype == np.dtype(dtype)
        np.testing.assert_allclose(out, expected, **tol)
        np.testing.assert_allclose(grad_w, ref_w, **tol)
        if x_grad:
            np.testing.assert_allclose(grad_x, ref_x, **tol)
        else:
            assert grad_x is None
        if use_bias:
            np.testing.assert_allclose(grad_b, ref_b, **tol)


class TestScratchReuse:
    def test_repeat_calls_reuse_pool_buffers(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        pool = ScratchPool()
        with no_grad():
            for _ in range(5):
                conv2d(Tensor(x), Tensor(w), padding=1, scratch=pool)
        # 5 calls x 2 workspaces, but only 2 allocations ever happen.
        assert len(pool) == 2
        assert pool.requested_bytes == 5 * pool.nbytes
        assert pool.reuse_pct() == pytest.approx(80.0)

    def test_distinct_shapes_get_distinct_buffers(self, rng):
        pool = ScratchPool()
        a = pool.get("conv2d.col", (2, 3, 4), np.float64)
        b = pool.get("conv2d.col", (2, 3, 5), np.float64)
        c = pool.get("conv2d.col", (2, 3, 4), np.float32)
        again = pool.get("conv2d.col", (2, 3, 4), np.float64)
        assert a is again
        assert a is not b and a is not c

    def test_steady_state_scratch_allocations_are_zero(self, rng):
        """Regression (tracemalloc): warm pooled convs stop allocating
        im2col workspaces; only the output tensor is materialised."""
        x = rng.standard_normal((4, 8, 16, 16))
        w = rng.standard_normal((16, 8, 3, 3))
        xt, wt = Tensor(x), Tensor(w)
        pool = ScratchPool()
        with no_grad():
            warm = conv2d(xt, wt, padding=1, scratch=pool)
            conv2d(xt, wt, padding=1, scratch=pool)

            workspace_bytes = pool.nbytes
            out_bytes = warm.data.nbytes
            assert workspace_bytes > 4 * out_bytes  # scratch dominates

            tracemalloc.start()
            base = tracemalloc.take_snapshot()
            for _ in range(3):
                conv2d(xt, wt, padding=1, scratch=pool)
            stats = tracemalloc.take_snapshot().compare_to(base, "filename")
            tracemalloc.stop()
        grown = sum(max(s.size_diff, 0) for s in stats)
        # 3 outputs (+ padded copies + trace noise) but no new workspaces:
        # well under a single im2col buffer.
        assert grown < workspace_bytes // 2
        assert len(pool) == 2

    def test_output_never_aliases_the_gemm_buffer(self, rng):
        # With N == 1 (or C_out == 1) the GEMM result is already an
        # NCHW-contiguous view; the output must still be its own copy,
        # or the next same-shape conv overwrites it.
        x = rng.standard_normal((1, 3, 5, 5))
        w = rng.standard_normal((1, 3, 3, 3))
        pool = ScratchPool()
        with no_grad():
            first = conv2d(Tensor(x), Tensor(w), padding=1, scratch=pool)
            kept = first.data.copy()
            conv2d(Tensor(-x), Tensor(w), padding=1, scratch=pool)
        np.testing.assert_array_equal(first.data, kept)

    def test_warm_calls_request_no_buffer_and_build_no_window_view(
            self, rng, monkeypatch):
        """After a warm-up, the forward, the weight-gradient repack and
        the input gradient run on their signature's cached workspaces:
        no pool lookup, no ``sliding_window_view``."""
        x = rng.standard_normal((2, 3, 7, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        pool = ScratchPool()

        def step():
            xt = Tensor(x, requires_grad=True)
            wt = Tensor(w, requires_grad=True)
            out = conv2d(xt, wt, stride=2, padding=1, scratch=pool)
            (out * out).sum().backward()
            return out.data, xt.grad, wt.grad

        expected = step()
        calls = []
        get = ScratchPool.get

        def counted_get(self, *args):
            calls.append("get")
            return get(self, *args)

        def counted_windows(*args, **kwargs):
            calls.append("sliding_window_view")
            return sliding_window_view(*args, **kwargs)

        monkeypatch.setattr(ScratchPool, "get", counted_get)
        monkeypatch.setattr(stride_tricks, "sliding_window_view",
                            counted_windows)
        # Also the name a module-level import in conv.py would bind.
        monkeypatch.setattr(conv_module, "sliding_window_view",
                            counted_windows, raising=False)
        got = step()
        assert calls == []
        for a, c in zip(got, expected):
            np.testing.assert_array_equal(a, c)

    def test_clear_drops_every_cached_workspace(self, rng):
        """After ``clear()`` no cached view may point into a dropped
        buffer: poisoning the dropped buffers must not reach a result."""
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))

        def run(pool):
            xt = Tensor(x.copy(), requires_grad=True)
            wt = Tensor(w.copy(), requires_grad=True)
            out = conv2d(xt, wt, padding=1, scratch=pool)
            (out * out).sum().backward()
            return out.data, xt.grad, wt.grad

        pool = ScratchPool()
        run(pool)
        dropped = list(pool._buffers.values())
        pool.clear()
        assert len(pool) == 0 and pool.requested_bytes == 0
        for buffer in dropped:
            buffer.fill(np.nan)
        for a, c in zip(run(pool), run(ScratchPool())):
            np.testing.assert_array_equal(a, c)

    def test_default_pool_is_thread_local_and_persistent(self):
        import threading

        main_pool = default_pool()
        assert default_pool() is main_pool
        seen = []
        thread = threading.Thread(target=lambda: seen.append(default_pool()))
        thread.start()
        thread.join()
        assert seen[0] is not main_pool
