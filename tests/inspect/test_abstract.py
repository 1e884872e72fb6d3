"""AbstractTensor mechanics and the interval transfer functions."""

import math

import numpy as np

from repro.core.model import MuseConfig
from repro.inspect import AbstractTensor, Interval, abstract_batch
from repro.inspect.abstract import buffer_address
from repro.inspect.gradcov import gradcheck_cases
from repro.inspect.intervals import _RULES, TOP, propagate
from repro.profiling import profile
from repro.tensor import Tensor


class TestAbstractTensor:
    def test_shape_and_dtype_without_materializing(self):
        at = AbstractTensor((4, 2, 10, 20), dtype=np.float32)
        assert at.data.shape == (4, 2, 10, 20)
        assert at.data.dtype == np.float32
        # Zero-stride broadcast view: one scalar backs the whole array.
        assert at.data.strides == (0, 0, 0, 0)
        assert at.data.base is not None

    def test_tensor_wrap_preserves_the_view(self):
        # Tensor.__init__ uses np.asarray, so the zero-stride view (and
        # with it the shared buffer address) survives wrapping — that
        # address is how the tracer recognizes input leaves.
        at = AbstractTensor((3, 5))
        wrapped = Tensor(at.data)
        assert buffer_address(wrapped.data) == buffer_address(at.data)

    def test_distinct_abstract_tensors_have_distinct_buffers(self):
        a = AbstractTensor((2, 2))
        b = AbstractTensor((2, 2))
        assert buffer_address(a.data) != buffer_address(b.data)

    def test_abstract_batch_matches_config_geometry(self):
        config = MuseConfig()
        batch = abstract_batch(config, dtype=np.float32)
        assert batch.closeness.shape == (
            1, config.len_closeness, config.flow_channels,
            config.height, config.width)
        assert batch.period.shape[1] == config.len_period
        assert batch.trend.shape[1] == config.len_trend
        assert batch.target.shape == (
            1, config.flow_channels, config.height, config.width)
        assert batch.closeness.dtype == np.float32


class TestIntervalPredicates:
    def test_open_bound_positivity(self):
        # (0, inf) is strictly positive; [0, inf) is not.
        assert Interval(0.0, math.inf, lo_open=True).is_positive
        assert not Interval(0.0, math.inf).is_positive
        assert Interval(0.0, math.inf).is_nonnegative

    def test_contains_zero_respects_openness(self):
        assert Interval(-1.0, 1.0).contains_zero
        assert Interval(0.0, 1.0).contains_zero
        assert not Interval(0.0, 1.0, lo_open=True).contains_zero
        assert not Interval(1e-6, 1.0).contains_zero


class TestTransferFunctions:
    def test_exp_is_strictly_positive(self):
        out = propagate("exp", [TOP])
        assert out.is_positive
        assert out.lo == 0.0 and out.lo_open

    def test_sum_preserves_strict_positivity(self):
        positive = propagate("exp", [TOP])
        assert propagate("sum", [positive]).is_positive

    def test_square_via_same_parent_mul(self):
        out = propagate("mul", [TOP, TOP], same_parent=True)
        assert out.is_nonnegative

    def test_mul_of_independent_unbounded_is_top(self):
        out = propagate("mul", [TOP, TOP], same_parent=False)
        assert out.can_be_negative

    def test_relu_clamps_at_zero(self):
        out = propagate("relu", [Interval(-5.0, 3.0)])
        assert out.lo == 0.0 and out.hi == 3.0

    def test_add_shifts_bounds(self):
        out = propagate("add", [Interval(0.0, 2.0), Interval(1e-5, 1e-5)])
        assert out.is_positive

    def test_div_by_positive_stays_finite_logic(self):
        num = Interval(0.0, 1.0)
        den = Interval(1e-5, math.inf)
        assert not den.contains_zero
        out = propagate("div", [num, den])
        assert out.is_nonnegative

    def test_reciprocal_of_positive_never_attains_zero(self):
        out = propagate("div", [Interval(1.0, 1.0),
                                Interval(0.0, math.inf, lo_open=True)])
        assert out.is_positive  # lo must be open at 0

    def test_eps_guard_pattern_proves_std_chain_safe(self):
        # The ST-Norm chain: x^2 -> sum -> +eps -> sqrt -> divide.
        squared = propagate("mul", [TOP, TOP], same_parent=True)
        summed = propagate("sum", [squared])
        guarded = propagate("add", [summed, Interval(1e-5, 1e-5)])
        root = propagate("sqrt", [guarded])
        assert guarded.is_positive
        assert root.is_positive
        assert not root.contains_zero

    def test_unknown_op_falls_back_to_top(self):
        out = propagate("no_such_op", [Interval(1.0, 2.0)])
        assert out is TOP

    def test_sigmoid_and_tanh_are_bounded(self):
        sig = propagate("sigmoid", [TOP])
        assert sig.lo >= 0.0 and sig.hi <= 1.0
        th = propagate("tanh", [TOP])
        assert th.lo >= -1.0 and th.hi <= 1.0

    def test_abs_and_sqrt(self):
        root = propagate("sqrt", [Interval(4.0, 9.0)])
        assert root.lo == 2.0 and root.hi == 3.0

    def test_rules_are_keyed_by_exactly_the_recorded_op_names(self):
        # A rule fires only under the name an op records on the tape; a
        # composite (swapaxes, flatten, split, ...) records the names of
        # the ops it calls.  A key no op records is dead, and a recorded
        # op without a rule widens to TOP.  `propagate` handles mul.
        recorded = set()
        for fn, inputs in gradcheck_cases().values():
            with profile() as prof:
                fn(inputs)
            recorded |= set(prof.stats)
        assert recorded == set(_RULES) | {"mul"}
