"""Graph tracer: records every op a model executes, with module paths.

For the duration of one traced call the tracer sets two fields of the
calling thread's hooks (``repro.tensor.tensor._THREAD.hooks``):

* ``trace`` — fires once per ``_from_op`` result with the op name,
  output tensor and parent tensors;
* ``module_call`` — wraps every ``Module.__call__`` so each recorded op
  can be attributed to the dotted module path (``encoder_c.net.1``)
  that produced it.

Both are per thread: ops and module calls on other threads never enter
the trace.  Both are restored on exit, so a model that raises
mid-trace (the exact scenario a shape checker exists for) cannot leak
instrumentation into later code.  The raising module's path is captured
before the stack unwinds and reported alongside the exception.
"""

from __future__ import annotations

import numpy as np

import repro.tensor.tensor as _tensor_mod

from .abstract import buffer_address

__all__ = ["TraceEvent", "Trace", "GraphTracer"]

# Constants bigger than this skip min/max observation and widen to an
# unknown range; real guard constants (eps scalars, masks, adjacency
# matrices) are far smaller.
_CONST_OBSERVE_LIMIT = 1 << 20


class TraceEvent:
    """One executed op: output facts plus parent references."""

    __slots__ = ("index", "op", "module", "out_id", "out_shape", "out_dtype",
                 "out_nbytes", "on_tape", "parent_ids", "parent_shapes",
                 "parent_dtypes")

    def __init__(self, index, op, module, out, parents):
        self.index = index
        self.op = op
        self.module = module
        self.out_id = id(out)
        self.out_shape = out.data.shape
        self.out_dtype = out.data.dtype
        self.out_nbytes = out.data.nbytes
        self.on_tape = out.requires_grad
        self.parent_ids = tuple(id(p) for p in parents)
        self.parent_shapes = tuple(p.data.shape for p in parents)
        self.parent_dtypes = tuple(p.data.dtype for p in parents)


class Trace:
    """The result of tracing one call: events plus leaf observations."""

    def __init__(self):
        self.events = []
        #: id(tensor) -> TraceEvent that produced it.
        self.producer = {}
        #: id(tensor) -> dict for leaves (parameters, inputs, constants).
        self.leaves = {}
        #: strong refs to every recorded tensor: ids key the two maps
        #: above, so letting a traced tensor be collected mid-trace
        #: would allow CPython to hand its id to a new object and
        #: silently cross-wire the graph.
        self._pinned = []
        #: innermost dotted module path active when the call raised.
        self.error_module = None
        #: the exception the traced call raised, if any.
        self.error = None
        #: final output tensor of the traced call (id), when it is one.
        self.output_ids = ()

    def event_for(self, tensor_id):
        return self.producer.get(tensor_id)


class GraphTracer:
    """Installs the trace and module-call hooks around a single model call."""

    def __init__(self, model=None, input_arrays=()):
        self._trace = Trace()
        self._module_paths = {}
        self._param_names = {}
        if model is not None:
            for path, module in model.named_modules():
                self._module_paths[id(module)] = path or type(model).__name__
            for name, param in model.named_parameters():
                self._param_names.setdefault(id(param), name)
        self._input_addresses = {}
        for name, array in input_arrays:
            self._input_addresses[buffer_address(array)] = name
        self._stack = []

    # -- hook bodies ---------------------------------------------------
    def _on_op(self, name, out, parents):
        trace = self._trace
        for parent in parents:
            pid = id(parent)
            if pid not in trace.producer and pid not in trace.leaves:
                trace.leaves[pid] = self._describe_leaf(parent)
                trace._pinned.append(parent)
        module = self._stack[-1] if self._stack else ""
        event = TraceEvent(len(trace.events), name, module, out, parents)
        trace.events.append(event)
        trace.producer[id(out)] = event
        trace._pinned.append(out)

    def _on_module_call(self, module, forward, args, kwargs):
        path = self._module_paths.get(id(module), type(module).__name__)
        self._stack.append(path)
        try:
            return forward(*args, **kwargs)
        except Exception:
            # Record the innermost module only: the first frame to see
            # the exception is the one whose op failed.
            if self._trace.error_module is None:
                self._trace.error_module = path
            raise
        finally:
            self._stack.pop()

    def _describe_leaf(self, tensor):
        tid = id(tensor)
        info = {
            "shape": tensor.data.shape,
            "dtype": tensor.data.dtype,
            "name": tensor.name,
            "requires_grad": tensor.requires_grad,
        }
        if tid in self._param_names:
            info["kind"] = "param"
            info["name"] = self._param_names[tid]
            return info
        address = buffer_address(tensor.data)
        if address in self._input_addresses:
            info["kind"] = "input"
            info["name"] = info["name"] or self._input_addresses[address]
            return info
        info["kind"] = "const"
        if tensor.data.size and tensor.data.size <= _CONST_OBSERVE_LIMIT:
            with np.errstate(all="ignore"):
                info["min"] = float(tensor.data.min())
                info["max"] = float(tensor.data.max())
        return info

    # -- driving -------------------------------------------------------
    def run(self, fn, *args, **kwargs):
        """Trace ``fn(*args, **kwargs)``; returns the populated Trace.

        The traced call's exception (if any) is captured on
        ``trace.error`` rather than propagated — an analysis pass turns
        it into a finding.  Hook state is always restored.
        """
        trace = self._trace
        try:
            with _tensor_mod._installed(trace=self._on_op,
                                        module_call=self._on_module_call), \
                    np.errstate(all="ignore"):
                result = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 — analysed, not hidden
            trace.error = exc
        finally:
            self._stack.clear()
        if trace.error is None:
            trace.output_ids = tuple(
                id(t) for t in _iter_tensors(result))
            self._result = result
        else:
            self._result = None
        return trace

    @property
    def result(self):
        return getattr(self, "_result", None)


def _iter_tensors(value):
    from repro.tensor import Tensor

    if isinstance(value, Tensor):
        yield value
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _iter_tensors(item)
