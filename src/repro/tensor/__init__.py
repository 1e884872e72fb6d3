"""Reverse-mode autodiff engine on numpy.

Public surface:

- :class:`Tensor` — array with gradient tracking.
- Functional ops (``add``, ``matmul``, ``conv2d``, ...).
- Operator overloads and methods on ``Tensor`` (attached here so the op
  modules stay free of circular imports).
- :func:`no_grad`, :func:`check_gradients`, seeded RNG helpers.
"""

from repro.tensor.tensor import (
    Tensor,
    as_tensor,
    default_dtype,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
)
from repro.tensor import ops as _ops
from repro.tensor import reductions as _reductions
from repro.tensor import shape as _shape
from repro.tensor import matmul as _matmul
from repro.tensor import conv as _conv
from repro.tensor.ops import (
    add,
    unbroadcast,
    div,
    exp,
    log,
    mul,
    neg,
    pow_,
    relu,
    sigmoid,
    sqrt,
    sub,
    tanh,
)
from repro.tensor.reductions import logsumexp, max_, mean, std, sum_, var
from repro.tensor.shape import (
    broadcast_to,
    concat,
    flatten,
    getitem,
    reshape,
    split,
    stack,
    swapaxes,
    transpose,
)
from repro.tensor.matmul import matmul
from repro.tensor.conv import conv2d, global_avg_pool2d
from repro.tensor.random import make_rng, reparameterize_noise
from repro.tensor.gradcheck import check_gradients, numerical_gradient
from repro.tensor.anomaly import AnomalyError, detect_anomaly, is_anomaly_enabled

# ---------------------------------------------------------------------------
# Attach operators and convenience methods to Tensor.  Doing it here (one
# explicit assignment per method) keeps tensor.py free of imports from the
# op modules while giving users the familiar `x + y`, `x.sum()` API.
# ---------------------------------------------------------------------------
Tensor.__add__ = _ops.add
Tensor.__radd__ = lambda self, other: _ops.add(other, self)
Tensor.__sub__ = _ops.sub
Tensor.__rsub__ = lambda self, other: _ops.sub(other, self)
Tensor.__mul__ = _ops.mul
Tensor.__rmul__ = lambda self, other: _ops.mul(other, self)
Tensor.__truediv__ = _ops.div
Tensor.__rtruediv__ = lambda self, other: _ops.div(other, self)
Tensor.__neg__ = _ops.neg
Tensor.__pow__ = _ops.pow_
Tensor.__matmul__ = _matmul.matmul
Tensor.__rmatmul__ = lambda self, other: _matmul.matmul(other, self)
Tensor.__getitem__ = _shape.getitem

Tensor.exp = _ops.exp
Tensor.log = _ops.log
Tensor.sqrt = _ops.sqrt
Tensor.tanh = _ops.tanh
Tensor.sigmoid = _ops.sigmoid
Tensor.relu = _ops.relu

Tensor.sum = _reductions.sum_
Tensor.mean = _reductions.mean
Tensor.max = _reductions.max_
Tensor.var = _reductions.var
Tensor.std = _reductions.std

Tensor.reshape = _shape.reshape
Tensor.transpose = _shape.transpose
Tensor.swapaxes = _shape.swapaxes
Tensor.flatten = _shape.flatten

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "set_default_dtype",
    "get_default_dtype",
    "default_dtype",
    # ops
    "add", "sub", "mul", "div", "neg", "pow_", "exp", "log", "sqrt",
    "tanh", "sigmoid", "relu", "unbroadcast",
    # reductions
    "sum_", "mean", "max_", "var", "std", "logsumexp",
    # shape
    "reshape", "transpose", "swapaxes", "flatten", "concat", "stack", "split",
    "getitem", "broadcast_to",
    # matmul / conv
    "matmul", "conv2d", "global_avg_pool2d",
    # random / gradcheck
    "make_rng", "reparameterize_noise",
    "check_gradients", "numerical_gradient",
    # anomaly detection
    "AnomalyError", "detect_anomaly", "is_anomaly_enabled",
]
