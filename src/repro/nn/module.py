"""Module base class: parameter registration, modes, state dicts."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.tensor import Tensor
from repro.tensor import tensor as _tensor_core

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A tensor that is a trainable model weight.

    Identical to :class:`Tensor` except that ``requires_grad`` defaults
    to ``True`` and :meth:`Module.parameters` collects it automatically.
    """

    def __init__(self, data, name=None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural-network modules.

    Assigning a :class:`Parameter` or another :class:`Module` as an
    attribute registers it, so :meth:`parameters`, :meth:`state_dict`
    and train/eval mode propagation work without manual bookkeeping —
    the same contract as ``torch.nn.Module``.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        """Compute the module output; subclasses must override."""
        raise NotImplementedError(f"{type(self).__name__} does not implement forward()")

    def __call__(self, *args, **kwargs):
        module_call = _tensor_core._THREAD.hooks.module_call
        if module_call is not None:
            return module_call(self, self.forward, args, kwargs)
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    # Parameter traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix=""):
        """Yield ``(dotted_name, Parameter)`` pairs, depth first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self):
        """Return the list of all parameters (deduplicated, in order)."""
        seen = set()
        result = []
        for _name, param in self.named_parameters():
            if id(param) not in seen:
                seen.add(id(param))
                result.append(param)
        return result

    def num_parameters(self):
        """Total number of scalar weights in the module."""
        return sum(p.size for p in self.parameters())

    def modules(self):
        """Yield this module and every descendant module."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def named_modules(self, prefix=""):
        """Yield ``(dotted_name, Module)`` pairs, depth first.

        The root module itself is yielded with its ``prefix`` (empty
        string by default), matching the torch contract.
        """
        yield (prefix, self)
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(prefix=child_prefix)

    def children(self):
        """Yield direct child modules."""
        yield from self._modules.values()

    def zero_grad(self):
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Modes
    # ------------------------------------------------------------------
    def train(self, mode=True):
        """Set training mode recursively (affects dropout, batch norm)."""
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self):
        """Set evaluation mode recursively."""
        return self.train(False)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self):
        """Return ``{dotted_name: ndarray}`` of all parameter values."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state):
        """Load parameter values produced by :meth:`state_dict`.

        Raises ``KeyError`` on missing entries and ``ValueError`` on
        shape mismatches — silent partial loads hide bugs.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        if missing:
            raise KeyError(f"state dict is missing parameters: {sorted(missing)}")
        for name, param in own.items():
            value = np.asarray(state[name])
            if value.shape != param.shape:
                raise ValueError(
                    f"parameter {name!r}: expected shape {param.shape}, got {value.shape}"
                )
            param.data[...] = value

    def save(self, path):
        """Save the state dict as a compressed ``.npz`` file."""
        np.savez_compressed(path, **self.state_dict())

    def load(self, path):
        """Load weights previously written by :meth:`save`."""
        with np.load(path) as archive:
            self.load_state_dict({key: archive[key] for key in archive.files})
