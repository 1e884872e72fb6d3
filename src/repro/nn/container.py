"""Module container."""

from __future__ import annotations

from repro.nn.module import Module

__all__ = ["ModuleList"]


class ModuleList(Module):
    """List of modules registered for parameter traversal."""

    def __init__(self, modules=()):
        super().__init__()
        self._items = []
        for module in modules:
            self.append(module)

    def append(self, module):
        setattr(self, f"item{len(self._items)}", module)
        self._items.append(module)
        return self

    def __len__(self):
        return len(self._items)

    def __getitem__(self, index):
        return self._items[index]

    def __iter__(self):
        return iter(self._items)
