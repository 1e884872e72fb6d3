"""Every registered differentiable op has a passing gradcheck case.

The op universe is discovered from the tensor modules' ``__all__``
(never hand-listed), so adding an op without a gradcheck case in
:mod:`repro.inspect.gradcov` fails ``test_every_registered_op_has_a_case``
before the op can ship unverified.
"""

import pytest

from repro.inspect.gradcov import (
    OP_MODULES,
    gradcheck_cases,
    registered_ops,
    uncovered_ops,
)
from repro.tensor import check_gradients

_CASES = gradcheck_cases()


class TestCoverage:
    def test_discovery_finds_the_full_op_surface(self):
        registry = registered_ops()
        assert len(registry) == 32
        assert set(registry.values()) <= set(OP_MODULES)
        # Spot-check each module contributes.
        assert registry["matmul"] == "repro.tensor.matmul"
        assert registry["conv2d"] == "repro.tensor.conv"
        assert registry["logsumexp"] == "repro.tensor.reductions"
        assert registry["broadcast_to"] == "repro.tensor.shape"
        assert registry["sigmoid"] == "repro.tensor.ops"

    def test_every_registered_op_has_a_case(self):
        assert uncovered_ops() == [], (
            "ops without a gradcheck case; add them to "
            "repro.inspect.gradcov.gradcheck_cases()")

    def test_no_stale_cases_for_unregistered_ops(self):
        assert set(_CASES) <= set(registered_ops())


@pytest.mark.parametrize("op_name", sorted(_CASES))
def test_gradcheck_passes(op_name):
    fn, inputs = _CASES[op_name]
    assert check_gradients(fn, inputs), f"gradcheck failed for {op_name!r}"
