"""In-memory spans recorded by wrappers around the program's public calls.

A :class:`Tracer` patches named functions and methods so each call
records a span: name, start, end, parent span and request id.  The
parent is the innermost open span on the same thread, and a span
inherits its parent's request id; a span opened with no parent starts
a new request id.  Spans stay in memory until the run ends and
:meth:`Tracer.export` writes them out.

Self time is a span's duration minus the part of it that its children
cover, with overlapping children counted once (:func:`covered`).
"""

from __future__ import annotations

import functools
import itertools
import threading
import types
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "attrs")

    def __init__(self, name, start, parent, rid, attrs):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.rid = rid
        self.attrs = attrs


class Tracer:
    """Records spans while :attr:`active`; wrappers cost one flag check
    otherwise."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._local = threading.local()
        self._rids = itertools.count(1)
        self._patches = []

    # -- recording -----------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """The innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name, attrs=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        rid = parent.rid if parent is not None else next(self._rids)
        span = Span(name, perf_counter(), parent, rid, attrs)
        stack.append(span)
        return span

    def end(self, span, keep=True):
        span.end = perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if keep:
            self.spans.append(span)

    def add(self, name, start, end, attrs=None):
        """Record a finished span on the current thread's stack."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        rid = parent.rid if parent is not None else next(self._rids)
        span = Span(name, start, parent, rid, attrs)
        span.end = end
        self.spans.append(span)

    # -- wrappers ------------------------------------------------------
    def _patch(self, owner, attr, wrapper, original):
        functools.update_wrapper(wrapper, original)
        own = isinstance(owner, type) and attr in vars(owner)
        self._patches.append((owner, attr, original,
                              own or not isinstance(owner, type)))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr, name, attrs=None, after=None):
        """Record a span around every call of ``owner.attr``.

        ``attrs(args, kwargs)`` and ``after(result)`` may return dicts
        stored on the span.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span = tracer.begin(name, attrs(args, kwargs) if attrs else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                span.attrs = {**(span.attrs or {}), **after(result)}
            return result

        self._patch(owner, attr, wrapper, original)

    def wrap_iter(self, owner, attr, name):
        """Record one span per item a generator function yields."""
        original = getattr(owner, attr)
        tracer = self

        def items(iterator):
            try:
                while True:
                    if not tracer.active:
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        yield item
                        continue
                    span = tracer.begin(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        tracer.end(span, keep=False)
                        return
                    except BaseException:
                        tracer.end(span)
                        raise
                    tracer.end(span)
                    yield item
            finally:
                close = getattr(iterator, "close", None)
                if close is not None:
                    close()

        def wrapper(*args, **kwargs):
            return items(iter(original(*args, **kwargs)))

        self._patch(owner, attr, wrapper, original)

    def wrap_async(self, owner, attr, name):
        """Record the busy time of a coroutine function's calls.

        The coroutine is driven step by step and only the time it runs
        is counted: time suspended waiting for the socket is idle, not
        work.  The span ends when the coroutine returns and is as long
        as its busy time.
        """
        original = getattr(owner, attr)
        tracer = self

        @types.coroutine
        def drive(coro):
            busy = 0.0
            value, error = None, None
            while True:
                started = perf_counter()
                try:
                    if error is None:
                        yielded = coro.send(value)
                    else:
                        yielded = coro.throw(error)
                except StopIteration as stop:
                    now = perf_counter()
                    busy += now - started
                    result = stop.value
                    tracer.add(name, now - busy, now)
                    return result
                except BaseException:
                    tracer.add(name, started - busy, perf_counter())
                    raise
                busy += perf_counter() - started
                try:
                    value, error = (yield yielded), None
                except BaseException as exc:  # delivered into the coroutine
                    value, error = None, exc

        async def wrapper(*args, **kwargs):
            if not tracer.active:
                return await original(*args, **kwargs)
            return await drive(original(*args, **kwargs))

        self._patch(owner, attr, wrapper, original)

    def restore(self):
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # the attribute was inherited

    # -- output --------------------------------------------------------
    def export(self):
        """Spans as JSON-able rows ``[name, start, end, parent, rid, attrs]``
        with ``parent`` an index into the rows (or None)."""
        done = [s for s in self.spans if s.end is not None]
        index = {id(s): i for i, s in enumerate(done)}
        return [[s.name, s.start, s.end,
                 index.get(id(s.parent)) if s.parent is not None else None,
                 s.rid, s.attrs] for s in done]


def load(rows):
    """Rebuild :class:`Span` objects from :meth:`Tracer.export` rows."""
    spans = []
    for name, start, end, _parent, rid, attrs in rows:
        span = Span(name, start, None, rid, attrs)
        span.end = end
        spans.append(span)
    for span, row in zip(spans, rows):
        if row[3] is not None:
            span.parent = spans[row[3]]
    return spans


def covered(start, end, intervals):
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    total = 0.0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def children_of(spans):
    """``{id(parent): [child spans]}`` over recorded spans."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    return children


def self_time(span, children):
    """Duration of ``span`` not covered by its children."""
    kids = children.get(id(span), ())
    return (span.end - span.start) - covered(
        span.start, span.end, [(c.start, c.end) for c in kids])
