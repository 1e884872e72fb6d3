"""Static model checker: abstract interpretation over a traced graph.

:func:`check_model` traces one ``training_loss`` call on abstract
(zero-stride, batch-size-1) inputs and analyses the recorded graph for:

* **shape errors** — the trace raised; the finding names the dotted
  module path whose forward saw the exception first;
* **dtype upcasts** — ops whose parents mix float32 and float64 (the
  promotion sites PR 2's policy exists to prevent);
* **dead parameters** — parameters not reachable from the loss along
  tape edges (detached or disconnected subgraphs train to nothing);
* **numeric hazards** — ``log``/``sqrt``/``div`` whose input interval
  admits invalid values, and softmax built without max-subtraction
  (see :mod:`repro.inspect.intervals` for the value domain);
* **cost estimates** — per-component parameter/FLOP/tape-byte totals,
  cross-checked against ``repro.analysis.complexity``.

Everything runs on the *real* op layer (a trace hook, not a parallel
implementation), so the checker cannot drift from execution semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.complexity import count_parameters
from repro.tensor import default_dtype

from .abstract import abstract_batch
from .intervals import TOP, Interval, propagate
from .trace import GraphTracer

__all__ = ["Finding", "ModuleCost", "ModelReport", "check_model",
           "check_method"]

#: FLOPs are reported per traced sample (batch size 1).
_REDUCTION_OPS = {"sum", "mean", "max", "min", "logsumexp", "gaussian_kl",
                  "sum_squares"}


@dataclass
class Finding:
    """One defect the checker can prove from the traced graph."""

    rule: str          # shape-error | dtype-upcast | dead-parameter | numeric-hazard
    message: str
    module: str = ""   # dotted module path, "" when not attributable
    op: str = ""       # op name for graph-level findings

    def to_dict(self):
        return {"rule": self.rule, "message": self.message,
                "module": self.module, "op": self.op}

    def __str__(self):
        where = f" [{self.module}]" if self.module else ""
        return f"{self.rule}{where}: {self.message}"


@dataclass
class ModuleCost:
    """Aggregated per-component cost estimates."""

    module: str
    params: int = 0
    flops: int = 0
    tape_bytes: int = 0

    def to_dict(self):
        return {"module": self.module, "params": self.params,
                "flops": self.flops, "tape_bytes": self.tape_bytes}


@dataclass
class ModelReport:
    """Outcome of one :func:`check_model` run."""

    model: str
    findings: list = field(default_factory=list)
    costs: list = field(default_factory=list)
    total_params: int = 0
    total_flops: int = 0
    total_tape_bytes: int = 0
    num_ops: int = 0

    @property
    def ok(self):
        return not self.findings

    def to_dict(self):
        return {
            "model": self.model,
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
            "costs": [c.to_dict() for c in self.costs],
            "totals": {"params": self.total_params,
                       "flops_per_sample": self.total_flops,
                       "tape_bytes_per_sample": self.total_tape_bytes,
                       "ops": self.num_ops},
        }

    def format_text(self):
        lines = [f"check-model: {self.model}"]
        lines.append(
            f"  graph: {self.num_ops} ops, {self.total_params:,} params, "
            f"{self.total_flops / 1e6:.1f} MFLOP/sample, "
            f"{self.total_tape_bytes / 1024:.0f} KiB tape/sample")
        for cost in self.costs:
            lines.append(
                f"    {cost.module:<20s} {cost.params:>12,}  "
                f"{cost.flops / 1e6:>10.1f} MFLOP  "
                f"{cost.tape_bytes / 1024:>8.0f} KiB")
        if self.findings:
            lines.append(f"  findings ({len(self.findings)}):")
            for finding in self.findings:
                lines.append(f"    - {finding}")
        else:
            lines.append("  findings: none")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Graph analyses
# ----------------------------------------------------------------------
def _analyse_shapes(trace, report):
    if trace.error is None:
        return False
    module = trace.error_module or ""
    report.findings.append(Finding(
        rule="shape-error",
        message=f"{type(trace.error).__name__}: {trace.error}",
        module=module))
    return True


def _analyse_upcasts(trace, report):
    # Report promotion *origins* only: once a float64 value has leaked
    # into a float32 graph, every downstream op would re-trigger the
    # rule, burying the root cause.  An output is "tainted" when its
    # float64-ness came from an already-reported promotion.
    tainted = set()
    seen = set()
    for event in trace.events:
        if any(pid in tainted for pid in event.parent_ids):
            tainted.add(event.out_id)
        float_dtypes = {d for d in event.parent_dtypes if d.kind == "f"}
        if len(float_dtypes) < 2:
            continue
        narrow = min(float_dtypes, key=lambda d: d.itemsize)
        origins = []
        for pid, dtype in zip(event.parent_ids, event.parent_dtypes):
            if dtype.kind != "f" or dtype == narrow or pid in tainted:
                continue
            leaf = trace.leaves.get(pid)
            if leaf is not None:
                label = leaf["name"] or leaf["kind"]
            else:
                producer = trace.event_for(pid)
                label = f"{producer.op} output" if producer else "op output"
            origins.append(f"{label} ({dtype})")
        tainted.add(event.out_id)
        if not origins:
            continue  # contagion from an already-reported origin
        key = (event.module, event.op, tuple(origins))
        if key in seen:
            continue
        seen.add(key)
        report.findings.append(Finding(
            rule="dtype-upcast",
            message=(f"'{event.op}' promotes mixed precisions "
                     f"{sorted(str(d) for d in float_dtypes)} -> "
                     f"{event.out_dtype}; widening operand: "
                     f"{', '.join(origins)}"),
            module=event.module, op=event.op))


def _reachable_params(trace, loss_ids):
    """Ids of param leaves reachable from the loss along tape edges."""
    reachable = set()
    stack = [tid for tid in loss_ids]
    visited = set()
    while stack:
        tid = stack.pop()
        if tid in visited:
            continue
        visited.add(tid)
        event = trace.event_for(tid)
        if event is None:
            leaf = trace.leaves.get(tid)
            if leaf is not None and leaf["kind"] == "param":
                reachable.add(tid)
            continue
        if not event.on_tape:
            continue
        stack.extend(event.parent_ids)
    return reachable


def _analyse_dead_params(trace, model, loss_ids, report, allow_unused=()):
    reachable = _reachable_params(trace, loss_ids)
    for name, param in model.named_parameters():
        if id(param) in reachable:
            continue
        if any(name.startswith(prefix) for prefix in allow_unused):
            continue
        module = name.rsplit(".", 1)[0] if "." in name else ""
        report.findings.append(Finding(
            rule="dead-parameter",
            message=(f"parameter '{name}' (shape {tuple(param.shape)}) "
                     "is not reachable from the loss; it will never "
                     "receive gradient"),
            module=module))


def _leaf_interval(leaf):
    lo, hi = leaf.get("min"), leaf.get("max")
    if lo is None or hi is None or math.isnan(lo) or math.isnan(hi):
        return TOP
    return Interval(lo, hi)


def _has_max_subtraction(trace, tensor_id, depth=8):
    """Does the value chain behind ``tensor_id`` subtract a max?"""
    for _ in range(depth):
        event = trace.event_for(tensor_id)
        if event is None:
            return False
        if event.op == "sub":
            guard_id = event.parent_ids[1]
            guard_event = trace.event_for(guard_id)
            if guard_event is not None and guard_event.op == "max":
                return True
            guard_leaf = trace.leaves.get(guard_id)
            # `x - max(x).detach()` leaves a leaf carrying the
            # reduction's name — detach() preserves it.
            if guard_leaf is not None and guard_leaf["name"] == "max":
                return True
            return False
        if event.op in ("reshape", "broadcast_to", "getitem", "transpose",
                        "mul", "div", "add"):
            tensor_id = event.parent_ids[0]
            continue
        return False
    return False


def _analyse_hazards(trace, report):
    intervals = {}

    def interval_of(tid):
        cached = intervals.get(tid)
        if cached is not None:
            return cached
        leaf = trace.leaves.get(tid)
        if leaf is None:
            return TOP
        if leaf["kind"] == "const":
            return _leaf_interval(leaf)
        return TOP  # params and inputs: unbounded

    for event in trace.events:
        parent_ivs = [interval_of(pid) for pid in event.parent_ids]
        same = (len(event.parent_ids) == 2
                and event.parent_ids[0] == event.parent_ids[1])
        intervals[event.out_id] = propagate(event.op, parent_ivs,
                                            same_parent=same)

        if event.op == "log" and not parent_ivs[0].is_positive:
            report.findings.append(Finding(
                rule="numeric-hazard",
                message=(f"log of a value in {parent_ivs[0]}: input is not "
                         "provably positive (add an epsilon guard or bound "
                         "the operand)"),
                module=event.module, op="log"))
        elif event.op == "sqrt" and parent_ivs[0].can_be_negative:
            report.findings.append(Finding(
                rule="numeric-hazard",
                message=(f"sqrt of a value in {parent_ivs[0]}: input may be "
                         "negative (square or clamp the operand first)"),
                module=event.module, op="sqrt"))
        elif event.op == "div" and parent_ivs[1].contains_zero:
            report.findings.append(Finding(
                rule="numeric-hazard",
                message=(f"division by a value in {parent_ivs[1]}: "
                         "denominator may be zero (add an epsilon guard)"),
                module=event.module, op="div"))
            continue
        if event.op == "div":
            _check_softmax(trace, event, interval_of, intervals, report)


def _check_softmax(trace, event, interval_of, intervals, report):
    """Flag ``exp(x) / sum(exp(x))`` when x was not max-shifted."""
    num = trace.event_for(event.parent_ids[0])
    den = trace.event_for(event.parent_ids[1])
    if num is None or den is None or num.op != "exp" or den.op != "sum":
        return
    if den.parent_ids[0] != num.out_id:
        return
    logits_id = num.parent_ids[0]
    if _has_max_subtraction(trace, logits_id):
        return
    logits_iv = intervals.get(logits_id, interval_of(logits_id))
    if not math.isinf(logits_iv.hi):
        return  # bounded logits cannot overflow exp
    report.findings.append(Finding(
        rule="numeric-hazard",
        message=("softmax without max-subtraction: exp of unbounded logits "
                 "overflows; subtract a detached max before exponentiating"),
        module=event.module, op="softmax"))


def _event_flops(event):
    out_size = int(np.prod(event.out_shape)) if event.out_shape else 1
    if event.op == "matmul":
        k = event.parent_shapes[0][-1] if event.parent_shapes[0] else 1
        return 2 * out_size * int(k)
    if event.op == "conv2d":
        weight = event.parent_shapes[1]
        if len(weight) == 4:
            _c_out, c_in, kh, kw = weight
            return 2 * out_size * int(c_in) * int(kh) * int(kw)
    if event.op in _REDUCTION_OPS and event.parent_shapes:
        return int(np.prod(event.parent_shapes[0]) or 1)
    return out_size


def _analyse_costs(trace, model, report):
    per_module = {}

    def bucket(path):
        top = path.split(".", 1)[0] if path else "(root)"
        if top not in per_module:
            per_module[top] = ModuleCost(module=top)
        return per_module[top]

    for event in trace.events:
        cost = bucket(event.module)
        cost.flops += _event_flops(event)
        if event.on_tape:
            cost.tape_bytes += event.out_nbytes
    for name, param in model.named_parameters():
        bucket(name).params += int(param.size)

    report.costs = sorted(per_module.values(), key=lambda c: -c.params)
    report.total_params = model.num_parameters()
    report.total_flops = sum(c.flops for c in per_module.values())
    report.total_tape_bytes = sum(c.tape_bytes for c in per_module.values())
    report.num_ops = len(trace.events)

    cross_check = count_parameters(model)
    if cross_check != report.total_params:
        report.findings.append(Finding(
            rule="cost-mismatch",
            message=(f"analysis.complexity.count_parameters reports "
                     f"{cross_check} params but the module tree holds "
                     f"{report.total_params}")))


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def check_model(model, config, *, rng=None, allow_unused=(), name=None):
    """Statically check ``model`` at the geometry given by ``config``.

    Traces one ``training_loss`` call on abstract batch-size-1 inputs
    (see :mod:`repro.inspect.abstract`) and runs every graph analysis.
    Returns a :class:`ModelReport`; ``report.ok`` is ``True`` when no
    finding fired.  The model's train/eval mode is preserved.
    """
    dtype = model.parameters()[0].dtype if model.parameters() else np.float64
    batch = abstract_batch(config, dtype=dtype)
    inputs = [("closeness", batch.closeness), ("period", batch.period),
              ("trend", batch.trend), ("target", batch.target)]

    report = ModelReport(model=name or type(model).__name__)
    tracer = GraphTracer(model, input_arrays=inputs)
    was_training = model.training
    model.train()
    try:
        with default_dtype(dtype):
            trace = tracer.run(
                model.training_loss, batch,
                rng=rng if rng is not None else np.random.default_rng(0))
    finally:
        model.train(was_training)

    if _analyse_shapes(trace, report):
        # A failed trace has no complete graph to analyse further.
        _analyse_costs(trace, model, report)
        return report

    breakdown = tracer.result[0]
    loss_ids = (id(breakdown.total),)
    _analyse_upcasts(trace, report)
    _analyse_dead_params(trace, model, loss_ids, report,
                         allow_unused=allow_unused)
    _analyse_hazards(trace, report)
    _analyse_costs(trace, model, report)
    return report


def check_method(method, *, dtype=np.float32, rng=None):
    """Build the named method at paper geometry and check it.

    ``method`` is ``"MUSE-Net"`` or any entry of
    ``repro.baselines.BASELINE_NAMES``.  Models are constructed under
    the float32 policy by default — the configuration training uses —
    so dtype-upcast findings reflect real runs.
    """
    from repro.baselines import BASELINE_NAMES, make_baseline
    from repro.core.model import MuseConfig, MUSENet

    with default_dtype(dtype):
        if method == "MUSE-Net":
            config = MuseConfig()
            model = MUSENet(config)
        elif method in BASELINE_NAMES:
            from repro.baselines.base import BaselineConfig

            config = BaselineConfig()
            model = make_baseline(method, config)
        else:
            raise ValueError(
                f"unknown method {method!r}; expected 'MUSE-Net' or one of "
                f"{', '.join(BASELINE_NAMES)}")
    return check_model(model, config, rng=rng, name=method)
