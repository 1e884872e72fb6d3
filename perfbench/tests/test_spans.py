"""Span recording and self-time arithmetic."""

import asyncio
import threading
import types

import pytest

from perfbench import layers, spans
from perfbench.spans import Span, Tracer


def _span(name, start, end, parent=None):
    span = Span(name, start, parent, 1, None)
    span.end = end
    return span


def test_overlapping_children_are_counted_once():
    # [0, 10] with children [1, 4] and [3, 6] (overlap 3-4) and [8, 12]
    # (clipped at the parent's end): covered = 5 + 2 = 7.
    assert spans.covered(0, 10, [(1, 4), (3, 6), (8, 12)]) == pytest.approx(7)
    parent = _span("p", 0.0, 10.0)
    kids = [_span("a", 1.0, 4.0, parent), _span("b", 3.0, 6.0, parent),
            _span("c", 8.0, 12.0, parent)]
    children = spans.children_of([parent, *kids])
    assert spans.self_time(parent, children) == pytest.approx(3.0)


def test_nested_and_disjoint_children():
    assert spans.covered(0, 10, [(2, 8), (3, 4)]) == pytest.approx(6)
    assert spans.covered(0, 10, [(0, 1), (2, 3), (4, 5)]) == pytest.approx(3)
    assert spans.covered(0, 10, []) == 0.0
    assert spans.covered(0, 10, [(11, 12), (-3, -1)]) == 0.0


def test_self_time_of_a_chain():
    root = _span("root", 0.0, 10.0)
    mid = _span("mid", 1.0, 7.0, root)
    leaf = _span("leaf", 2.0, 5.0, mid)
    children = spans.children_of([root, mid, leaf])
    selfs = [spans.self_time(s, children) for s in (root, mid, leaf)]
    assert selfs == pytest.approx([4.0, 3.0, 3.0])
    assert sum(selfs) == pytest.approx(10.0)


class Thing:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


def test_wrap_records_parent_and_request_id_then_restores():
    tracer = Tracer()
    tracer.wrap(Thing, "outer", "outer")
    tracer.wrap(Thing, "inner", "inner", attrs=lambda a, k: {"n": a[1]},
                after=lambda result: {"result": result})
    Thing().outer(1)          # inactive: nothing recorded
    assert tracer.spans == []
    tracer.active = True
    assert Thing().outer(3) == 7
    Thing().outer(4)
    tracer.active = False
    inner = [s for s in tracer.spans if s.name == "inner"]
    outer = [s for s in tracer.spans if s.name == "outer"]
    assert [s.parent for s in inner] == outer
    assert inner[0].attrs == {"n": 3, "result": 6}
    assert inner[0].rid == outer[0].rid != outer[1].rid
    tracer.restore()
    assert "outer" in vars(Thing) and Thing.outer.__name__ == "outer"
    assert not hasattr(Thing.outer, "__wrapped__")


def test_restore_removes_a_wrapper_over_an_inherited_method():
    class Child(Thing):
        pass

    tracer = Tracer()
    tracer.wrap(Child, "inner", "inner")
    assert "inner" in vars(Child)
    tracer.restore()
    assert "inner" not in vars(Child)


def test_spans_on_other_threads_start_their_own_requests():
    tracer = Tracer()
    tracer.wrap(Thing, "inner", "inner")
    tracer.active = True
    worker = threading.Thread(target=Thing().inner, args=(1,), daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    Thing().inner(2)
    tracer.active = False
    assert all(s.parent is None for s in tracer.spans)
    assert len({s.rid for s in tracer.spans}) == 2


def test_wrap_iter_records_one_span_per_item():
    owner = types.SimpleNamespace(items=lambda n: iter(range(n)))
    tracer = Tracer()
    tracer.wrap_iter(owner, "items", "item")
    tracer.active = True
    assert list(owner.items(3)) == [0, 1, 2]
    tracer.active = False
    assert [s.name for s in tracer.spans] == ["item"] * 3


def test_wrap_async_counts_busy_time_not_waiting():
    async def slow(wait):
        await asyncio.sleep(wait)
        return "done"

    owner = types.SimpleNamespace(slow=slow)
    tracer = Tracer()
    tracer.wrap_async(owner, "slow", "slow")
    tracer.active = True
    assert asyncio.run(owner.slow(0.05)) == "done"
    tracer.active = False
    (span,) = tracer.spans
    assert span.end - span.start < 0.02


def test_export_round_trip_keeps_parents():
    tracer = Tracer()
    tracer.wrap(Thing, "outer", "outer")
    tracer.wrap(Thing, "inner", "inner")
    tracer.active = True
    Thing().outer(1)
    tracer.active = False
    tracer.restore()
    loaded = spans.load(tracer.export())
    inner = next(s for s in loaded if s.name == "inner")
    assert inner.parent.name == "outer"


def test_span_metrics_report_zero_for_layers_not_run():
    metrics = layers.span_metrics([])
    names = {name for name, _unit, _better in layers.PER_LAYER}
    assert set(metrics) <= names
    assert all(value == 0.0 for value in metrics.values())


def _forecast_and_batch(rid, start, end, forward_start, forward_end):
    forecast = Span("serve.server.forecast", start, None, rid, None)
    forecast.end = end
    batch = Span("serve.batcher.serve", forward_start, None, 100 + rid,
                 {"serves": [rid]})
    batch.end = forward_end
    forward = Span("core.forward", forward_start, batch, 100 + rid,
                   {"n": 1})
    forward.end = forward_end
    return [forecast, batch, forward]


def test_forward_on_another_thread_is_linked_through_the_future():
    # Two calls overlap in time; each is linked only to the forward of
    # the batch that served its request, not to every forward inside
    # its interval.
    rows = (_forecast_and_batch(1, 0.0, 10.0, 3.0, 9.0)
            + _forecast_and_batch(2, 2.0, 12.0, 9.0, 11.0))
    metrics = layers.span_metrics(rows)
    # self times 10 - 6 and 10 - 2
    assert metrics["serve.server.forecast_self_ms"] == pytest.approx(6e3)
    lines = layers.levels(rows, ("serve.server.forecast",))
    assert lines == [
        "level serve.server.forecast: 20000.0 ms total, children 8000.0 ms "
        "(core.forward 8000.0 ms), residual 12000.0 ms (60.0%)"]


def test_a_real_batcher_records_the_requests_each_forward_served():
    from repro.serve.batcher import MicroBatcher

    tracer = Tracer()
    layers.install(tracer)
    try:
        def forward(batch):
            span = tracer.begin("core.forward", {"n": len(batch)})
            tracer.end(span)
            return batch.target

        batch = _sample_batch()
        tracer.active = True
        with MicroBatcher(forward, max_wait_ms=0.0) as batcher:
            for _ in range(3):
                call = tracer.begin("serve.server.forecast")
                batcher.submit(batch).result(timeout=10)
                tracer.end(call)
        tracer.active = False
    finally:
        tracer.restore()
    calls = [s for s in tracer.spans if s.name == "serve.server.forecast"]
    forwards = [s for s in tracer.spans if s.name == "core.forward"]
    links = layers.forward_links(tracer.spans)
    assert len({s.rid for s in calls}) == 3
    for call, forward in zip(calls, forwards):
        assert links[id(call)] == [("core.forward", forward.start,
                                    forward.end)]


def _sample_batch():
    import numpy as np

    from repro.data.windows import SampleBatch

    zeros = np.zeros((1, 2, 2, 2))
    return SampleBatch(closeness=zeros, period=zeros, trend=zeros,
                       target=zeros, indices=np.zeros(1, dtype=int))
