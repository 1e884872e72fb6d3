"""Value-range abstract domain for the numeric-hazard checker.

Every traced op gets an :class:`Interval` over-approximating the set of
values its output can take, derived from its parents' intervals by
per-op transfer rules.  The domain tracks *open* bounds so that
``exp(x)`` is known to be strictly positive — that strictness is what
lets ``log(softmax(x))`` or ``x / (norm + 1e-8)`` be proven safe while
``log(x)`` on a raw input is flagged.

The rules are deliberately conservative: an op with no rule widens to
``(-inf, inf)``, so the checker can only miss hazards through genuinely
unknown ops, never invent safety.
"""

from __future__ import annotations

import math

__all__ = ["Interval", "TOP", "propagate"]

_INF = math.inf


class Interval:
    """A closed-or-open real interval ``[lo, hi]`` / ``(lo, hi)``.

    ``lo_open=True`` means the lower bound is *excluded*: the value is
    strictly greater than ``lo``.  Infinite bounds are always open.
    """

    __slots__ = ("lo", "hi", "lo_open", "hi_open")

    def __init__(self, lo, hi, lo_open=False, hi_open=False):
        self.lo = float(lo)
        self.hi = float(hi)
        self.lo_open = bool(lo_open) or math.isinf(self.lo)
        self.hi_open = bool(hi_open) or math.isinf(self.hi)

    def __repr__(self):
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"

    # -- predicates the hazard rules ask about -------------------------
    @property
    def is_positive(self):
        """True when every possible value is > 0."""
        return self.lo > 0 or (self.lo == 0 and self.lo_open)

    @property
    def is_negative(self):
        """True when every possible value is < 0."""
        return self.hi < 0 or (self.hi == 0 and self.hi_open)

    @property
    def is_nonnegative(self):
        """True when every possible value is >= 0."""
        return self.lo >= 0

    @property
    def contains_zero(self):
        """True when 0 is a possible value."""
        if self.lo > 0 or self.hi < 0:
            return False
        if self.lo == 0 and self.lo_open:
            return False
        if self.hi == 0 and self.hi_open:
            return False
        return True

    @property
    def can_be_negative(self):
        """True when some possible value is < 0."""
        return self.lo < 0

    def hull(self, other):
        """Smallest interval containing both operands."""
        if self.lo < other.lo:
            lo, lo_open = self.lo, self.lo_open
        elif other.lo < self.lo:
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open and other.lo_open
        if self.hi > other.hi:
            hi, hi_open = self.hi, self.hi_open
        elif other.hi > self.hi:
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open and other.hi_open
        return Interval(lo, hi, lo_open, hi_open)


TOP = Interval(-_INF, _INF)
"""The unknown range: any real value."""


def _mul_bound(a, b):
    # Interval endpoints come from finite data or limits; adopt the
    # 0 * inf = 0 convention so a zero bound never poisons the product.
    if a == 0 or b == 0:
        return 0.0
    return a * b


def _add(vals):
    a, b = vals
    return Interval(a.lo + b.lo, a.hi + b.hi,
                    a.lo_open or b.lo_open, a.hi_open or b.hi_open)


def _neg(vals):
    (a,) = vals
    return Interval(-a.hi, -a.lo, a.hi_open, a.lo_open)


def _sub(vals):
    a, b = vals
    return _add((a, _neg((b,))))


def _mul(vals, same_parent=False):
    a, b = vals
    if same_parent:
        # x * x is a square: never negative, even when x's sign is
        # unknown.  This is how `(z * z).sum() ** 0.5` norms are proven
        # safe without a dedicated square op.
        hi = max(_mul_bound(a.lo, a.lo), _mul_bound(a.hi, a.hi))
        return Interval(0.0, hi)
    candidates = [(_mul_bound(a.lo, b.lo), a.lo_open or b.lo_open),
                  (_mul_bound(a.lo, b.hi), a.lo_open or b.hi_open),
                  (_mul_bound(a.hi, b.lo), a.hi_open or b.lo_open),
                  (_mul_bound(a.hi, b.hi), a.hi_open or b.hi_open)]
    lo, lo_open = min(candidates, key=lambda c: c[0])
    hi, hi_open = max(candidates, key=lambda c: c[0])
    return Interval(lo, hi, lo_open, hi_open)


def _reciprocal(a):
    if not (a.is_positive or a.is_negative):
        return TOP
    sign = 1.0 if a.is_positive else -1.0

    def inv(x):
        if x == 0.0:
            return sign * _INF
        if math.isinf(x):
            return 0.0
        return 1.0 / x

    lo, hi = inv(a.hi), inv(a.lo)
    # 1/x never attains 0 (finite x) nor inf (nonzero x): bounds that
    # came from an infinite or zero endpoint are open.
    lo_open = a.hi_open or math.isinf(a.hi) or a.hi == 0.0
    hi_open = a.lo_open or math.isinf(a.lo) or a.lo == 0.0
    return Interval(lo, hi, lo_open, hi_open)


def _div(vals):
    a, b = vals
    return _mul((a, _reciprocal(b)))


def _exp(vals):
    (a,) = vals
    lo = math.exp(a.lo) if a.lo < 700 else _INF
    hi = math.exp(a.hi) if a.hi < 700 else _INF
    # exp never attains 0, even at lo = -inf.
    return Interval(lo, hi, lo_open=(lo == 0.0) or a.lo_open, hi_open=a.hi_open)


def _log(vals):
    (a,) = vals
    lo = math.log(a.lo) if a.lo > 0 else -_INF
    hi = math.log(a.hi) if a.hi > 0 else -_INF
    return Interval(lo, hi, a.lo_open, a.hi_open)


def _sqrt(vals):
    (a,) = vals
    lo = math.sqrt(max(a.lo, 0.0))
    hi = math.sqrt(a.hi) if a.hi > 0 else 0.0
    return Interval(lo, hi, a.lo_open and a.lo > 0, a.hi_open)


def _tanh(vals):
    (a,) = vals
    return Interval(math.tanh(a.lo), math.tanh(a.hi), a.lo_open, a.hi_open)


def _sigmoid(vals):
    (a,) = vals
    def sig(x):
        if x > 700:
            return 1.0
        if x < -700:
            return 0.0
        return 1.0 / (1.0 + math.exp(-x))
    lo, hi = sig(a.lo), sig(a.hi)
    return Interval(lo, hi, lo_open=(lo == 0.0) or a.lo_open,
                    hi_open=(hi == 1.0) or a.hi_open)


def _relu(vals):
    (a,) = vals
    return Interval(max(a.lo, 0.0), max(a.hi, 0.0),
                    a.lo_open and a.lo > 0, a.hi_open)


def _pow(vals):
    (a,) = vals
    if a.is_nonnegative:
        return Interval(0.0, _INF, lo_open=a.is_positive)
    return TOP


def _sum(vals):
    (a,) = vals
    # A sum of strictly positive terms is strictly positive — that fact
    # carries logsumexp / softmax denominators to safety.
    if a.is_nonnegative:
        return Interval(0.0, _INF, lo_open=a.is_positive)
    if a.hi <= 0:
        return Interval(-_INF, 0.0, hi_open=a.is_negative)
    return TOP


def _within(vals):
    # Reductions/reshapes whose output values are drawn from (or stay
    # within the hull of) the input values.
    if len(vals) == 1:
        return vals[0]
    out = vals[0]
    for v in vals[1:]:
        out = out.hull(v)
    return out


def _bilinear(vals):
    # matmul/conv sum products: nonneg x nonneg stays nonneg, otherwise
    # unknown.
    if all(v.is_nonnegative for v in vals):
        return Interval(0.0, _INF)
    return TOP


_RULES = {
    "add": _add,
    "sub": _sub,
    "div": _div,
    "neg": _neg,
    "exp": _exp,
    "log": _log,
    "sqrt": _sqrt,
    "tanh": _tanh,
    "sigmoid": _sigmoid,
    "relu": _relu,
    "pow": _pow,
    "sum": _sum,
    "mean": _within,
    "max": _within,
    "reshape": _within,
    "transpose": _within,
    "concat": _within,
    "stack": _within,
    "getitem": _within,
    "broadcast_to": _within,
    "matmul": _bilinear,
    "conv2d": _bilinear,
}


def propagate(op, parent_intervals, same_parent=False):
    """Return the output interval of ``op`` given its parents' intervals.

    ``same_parent=True`` marks a binary op whose two operands are the
    *same* tensor (``x * x``), enabling the square refinement.  Unknown
    ops return :data:`TOP`.
    """
    if op == "mul":
        return _mul(parent_intervals, same_parent=same_parent)
    rule = _RULES.get(op)
    if rule is None:
        return TOP
    try:
        return rule(parent_intervals)
    except (ValueError, OverflowError, IndexError):
        return TOP
