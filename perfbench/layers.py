"""The layers the traced runs time, and the per-layer metrics they give.

:func:`install` wraps the public calls named below in every process a
traced run starts (the benchmark process, and for ``wire`` the server
through ``serve_launcher.py``).  :func:`span_metrics` turns the spans
of a measured window into the per-layer metrics that spans alone
define; each workload adds the metrics that need its own bookkeeping
(client round trips, phase splits, cache counters, ladder shares).

Every traced run reports every per-layer metric.  A layer that a
workload does not run reports 0: the zero is the measurement that
shows the layer was skipped.
"""

from __future__ import annotations

#: MUSE-Net module groups, each timed by wrapping its classes' forward.
GROUPS = ("stem", "exclusive", "interactive", "simplex", "duplex",
          "decoder", "spatial")

#: (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER = [
    ("serve.frontend.query_self_ms", "ms", "lower"),
    ("serve.frontend.read_self_ms", "ms", "lower"),
    ("serve.wire.encode_ms", "ms", "lower"),
    ("serve.wire.decode_ms", "ms", "lower"),
    ("serve.wire.reply_bytes", "bytes", "lower"),
    ("serve.batcher.queue_wait_ms", "ms", "lower"),
    ("serve.batcher.batch_size", "count", "higher"),
    ("serve.batcher.queue_wait_ms.closed_loop", "ms", "lower"),
    ("serve.batcher.batch_size.closed_loop", "count", "higher"),
    ("serve.results.hit_ratio", "ratio", "higher"),
    ("serve.results.forwards", "count", "lower"),
    ("serve.server.forecast_self_ms", "ms", "lower"),
    ("serve.server.push_ms", "ms", "lower"),
    ("serve.cache.sample_ms", "ms", "lower"),
    ("serve.cache.push_ms", "ms", "lower"),
    ("core.forward_ms.b1", "ms", "lower"),
    ("core.forward_ms.b2", "ms", "lower"),
    ("core.forward_calls", "count", "lower"),
    *[(f"core.{group}.forward_ms", "ms", "lower") for group in GROUPS],
    ("core.self_ms", "ms", "lower"),
    ("core.loss_ms", "ms", "lower"),
    *[(f"core.loss.{group}_ms", "ms", "lower") for group in GROUPS],
    ("core.loss.self_ms", "ms", "lower"),
    ("data.batch_ms", "ms", "lower"),
    ("tensor.backward_ms", "ms", "lower"),
    ("training.sentinel_ms", "ms", "lower"),
    ("optim.clip_ms", "ms", "lower"),
    ("optim.step_ms", "ms", "lower"),
    ("training.step_self_ms", "ms", "lower"),
    ("training.steps", "count", "higher"),
    ("training.eval_s", "s", "lower"),
    ("stream.ingest.offer_ms", "ms", "lower"),
    ("stream.ingest.self_ms", "ms", "lower"),
    ("stream.forecast_ms", "ms", "lower"),
    ("stream.drift.observe_ms", "ms", "lower"),
    ("stream.degrade.fallback_share", "ratio", "lower"),
    ("stream.adapt.fit_s", "s", "lower"),
    ("training.checkpoint.save_s", "s", "lower"),
    ("serve.server.swap_s", "s", "lower"),
    ("stream.adapt.self_s", "s", "lower"),
    ("stream.adapt.retrains", "count", "lower"),
]


def install(tracer):
    """Wrap every public call a per-layer metric reads (inactive until
    ``tracer.active`` is set)."""
    from repro.core import (DuplexEncoder, ExclusiveEncoder,
                            InteractiveEncoder, MUSENet,
                            ReconstructionDecoder, ResPlusNetwork,
                            SeriesStem, SimplexEncoder)
    from repro.optim import Adam
    from repro.serve import wire
    from repro.serve.batcher import MicroBatcher
    from repro.serve.cache import WindowCache
    from repro.serve.results import ForecastCache
    from repro.serve.server import ForecastServer
    from repro.serve.stats import LatencyStats
    from repro.stream import adapt as stream_adapt
    from repro.stream.drift import DriftSentinel
    from repro.stream.ingest import StreamIngestor
    from repro.stream.runtime import StreamRuntime
    from repro.tensor import Tensor
    from repro.training import trainer as trainer_module
    from repro.training.sentinel import DivergenceSentinel

    w = tracer.wrap
    # serve
    w(wire, "encode_frame", "serve.wire.encode",
      after=lambda frame: {"bytes": len(frame)})
    tracer.wrap_async(wire, "read_frame_async", "serve.wire.decode")
    w(wire, "payload_array", "serve.wire.payload")
    w(ForecastServer, "forecast", "serve.server.forecast")
    w(ForecastServer, "forecast_tick", "serve.server.forecast_tick")
    w(ForecastServer, "push_tick", "serve.server.push")
    w(ForecastServer, "load_checkpoint", "serve.server.swap")
    w(LatencyStats, "record_batch", "serve.batcher.batch",
      attrs=lambda a, k: {"requests": a[1], "waits": list(a[4])})

    def stamp(future):
        # The future carries the request id of the call that submitted
        # it, so the batch that resolves it can name the requests it
        # served (see forward_links).
        caller = tracer.current()
        if caller is not None:
            future.rid = caller.rid
        return {}

    w(MicroBatcher, "submit", "serve.batcher.submit", after=stamp)
    w(MicroBatcher, "_serve", "serve.batcher.serve",
      attrs=lambda a, k: {"serves": [getattr(r.future, "rid", None)
                                     for r in a[1]]})
    w(ForecastCache, "lookup", "serve.results.lookup",
      after=lambda found: {"kind": found[0]})
    w(WindowCache, "sample", "serve.cache.sample")
    w(WindowCache, "push", "serve.cache.push")
    # core
    w(MUSENet, "predict", "core.forward",
      attrs=lambda a, k: {"n": len(a[1])})
    w(MUSENet, "training_loss", "core.loss")
    for cls, group in ((SeriesStem, "stem"), (ExclusiveEncoder, "exclusive"),
                       (InteractiveEncoder, "interactive"),
                       (SimplexEncoder, "simplex"), (DuplexEncoder, "duplex"),
                       (ReconstructionDecoder, "decoder"),
                       (ResPlusNetwork, "spatial")):
        w(cls, "forward", f"core.{group}")
    # training, optim, data, tensor
    w(trainer_module.Trainer, "fit", "training.fit")
    w(trainer_module.Trainer, "predict_scaled", "training.eval")
    tracer.wrap_iter(trainer_module, "iterate_batches", "data.batch")
    w(trainer_module, "clip_grad_norm", "optim.clip")
    w(DivergenceSentinel, "check", "training.sentinel")
    w(Adam, "step", "optim.step")
    w(Tensor, "backward", "tensor.backward")
    # stream
    w(StreamRuntime, "ingest", "stream.ingest")
    w(StreamRuntime, "forecast", "stream.forecast")
    w(StreamRuntime, "adapt", "stream.adapt")
    w(StreamIngestor, "offer", "stream.ingest.offer")
    w(DriftSentinel, "observe", "stream.drift.observe")
    w(stream_adapt, "save_checkpoint", "training.checkpoint.save")


def _within(span, kinds):
    """Nearest ancestor of ``span`` whose name is in ``kinds``."""
    node = span.parent
    while node is not None:
        if node.name in kinds:
            return node
        node = node.parent
    return None


def forward_links(spans):
    """``{id(forecast span): [(name, start, end)]}`` for the forwards
    that served each ``ForecastServer.forecast`` call.

    The forward runs on the batcher thread, so it is not a same-thread
    child of the call.  The link is the future the call waits on: it
    carries the call's request id, and the batch that resolves it
    (``serve.batcher.serve``, the forward's parent) records the request
    ids it served.
    """
    served = {}
    for span in spans:
        if span.name != "core.forward":
            continue
        batch = _within(span, ("serve.batcher.serve",))
        if batch is None:
            continue
        for rid in set(batch.attrs["serves"]):
            served.setdefault(rid, []).append(
                ("core.forward", span.start, span.end))
    return {id(span): served.get(span.rid, []) for span in spans
            if span.name == "serve.server.forecast"}


def span_metrics(spans):
    """Per-layer metrics defined by spans alone (zero when absent)."""
    from perfbench.spans import children_of, covered, self_time

    children = children_of(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def durations(name):
        return [s.end - s.start for s in by_name.get(name, ())]

    def mean(values, scale=1e3):
        return scale * sum(values) / len(values) if values else 0.0

    def self_total(name):
        return sum(self_time(s, children) for s in by_name.get(name, ()))

    out = {}
    encodes = by_name.get("serve.wire.encode", [])
    out["serve.wire.encode_ms"] = mean(durations("serve.wire.encode"))
    decodes = by_name.get("serve.wire.decode", [])
    out["serve.wire.decode_ms"] = (
        1e3 * (sum(durations("serve.wire.decode"))
               + sum(durations("serve.wire.payload"))) / len(decodes)
        if decodes else 0.0)
    out["serve.wire.reply_bytes"] = (
        sum(s.attrs["bytes"] for s in encodes) / len(encodes)
        if encodes else 0.0)
    forecasts = by_name.get("serve.server.forecast", [])
    linked = forward_links(spans)
    out["serve.server.forecast_self_ms"] = (
        1e3 * sum((s.end - s.start) - covered(
            s.start, s.end, [(a, b) for _n, a, b in linked.get(id(s), ())])
            for s in forecasts) / len(forecasts) if forecasts else 0.0)
    out["serve.server.push_ms"] = mean(durations("serve.server.push"))
    out["serve.cache.sample_ms"] = mean(durations("serve.cache.sample"))
    out["serve.cache.push_ms"] = mean(durations("serve.cache.push"))

    # core: forwards by batch size, and the module groups inside
    # predict (core.<group>.forward_ms) or training_loss (core.loss.*).
    forwards = by_name.get("core.forward", [])
    for n in (1, 2):
        out[f"core.forward_ms.b{n}"] = mean(
            [s.end - s.start for s in forwards if s.attrs["n"] == n])
    out["core.forward_calls"] = float(len(forwards))
    losses = by_name.get("core.loss", [])
    group_time = {("core.forward", g): 0.0 for g in GROUPS}
    group_time.update({("core.loss", g): 0.0 for g in GROUPS})
    for group in GROUPS:
        for span in by_name.get(f"core.{group}", ()):
            owner = _within(span, ("core.forward", "core.loss"))
            if owner is not None and _within(
                    span, tuple(f"core.{g}" for g in GROUPS)) is None:
                group_time[(owner.name, group)] += span.end - span.start
    for group in GROUPS:
        out[f"core.{group}.forward_ms"] = (
            1e3 * group_time[("core.forward", group)] / len(forwards)
            if forwards else 0.0)
        out[f"core.loss.{group}_ms"] = (
            1e3 * group_time[("core.loss", group)] / len(losses)
            if losses else 0.0)
    out["core.self_ms"] = (1e3 * self_total("core.forward") / len(forwards)
                           if forwards else 0.0)
    out["core.loss_ms"] = mean(durations("core.loss"))
    out["core.loss.self_ms"] = (1e3 * self_total("core.loss") / len(losses)
                                if losses else 0.0)

    # training step
    out["data.batch_ms"] = mean(durations("data.batch"))
    out["tensor.backward_ms"] = mean(durations("tensor.backward"))
    out["training.sentinel_ms"] = mean(durations("training.sentinel"))
    out["optim.clip_ms"] = mean(durations("optim.clip"))
    out["optim.step_ms"] = mean(durations("optim.step"))
    steps = len(by_name.get("optim.step", []))
    out["training.steps"] = float(steps)
    out["training.step_self_ms"] = (1e3 * self_total("training.fit") / steps
                                    if steps else 0.0)
    out["training.eval_s"] = mean(durations("training.eval"), scale=1.0)

    # stream
    ingests = by_name.get("stream.ingest", [])
    out["stream.ingest.offer_ms"] = mean(durations("stream.ingest.offer"))
    plain = [s for s in ingests
             if not any(c.name == "stream.adapt"
                        for c in children.get(id(s), ()))]
    out["stream.ingest.self_ms"] = mean(
        [self_time(s, children) for s in plain])
    out["stream.forecast_ms"] = mean(durations("stream.forecast"))
    out["stream.drift.observe_ms"] = mean(durations("stream.drift.observe"))
    adapts = by_name.get("stream.adapt", [])
    fits = [s for s in by_name.get("training.fit", ())
            if _within(s, ("stream.adapt",)) is not None]
    out["stream.adapt.fit_s"] = (sum(s.end - s.start for s in fits)
                                 / len(adapts) if adapts else 0.0)
    out["training.checkpoint.save_s"] = mean(
        durations("training.checkpoint.save"), scale=1.0)
    out["serve.server.swap_s"] = mean(durations("serve.server.swap"),
                                      scale=1.0)
    out["stream.adapt.self_s"] = (self_total("stream.adapt") / len(adapts)
                                  if adapts else 0.0)
    out["stream.adapt.retrains"] = float(len(adapts))
    return out


def batcher_metrics(spans):
    """Queue wait p50 (ms) and mean requests per batch from the
    ``LatencyStats.record_batch`` calls in ``spans``."""
    import numpy as np

    batches = [s for s in spans if s.name == "serve.batcher.batch"]
    if not batches:
        return 0.0, 0.0
    waits = [w for s in batches for w in s.attrs["waits"]]
    requests = sum(s.attrs["requests"] for s in batches)
    return float(np.median(waits) * 1e3), requests / len(batches)


def levels(spans, roots):
    """Report lines: each level's time, its children and its residual.

    ``roots`` names the span kinds whose breakdown is printed; a level's
    children are the spans directly below it (plus, for a
    ``ForecastServer.forecast`` call, the forward that served it), and
    the residual is the parent time they leave unattributed.
    """
    from perfbench.spans import children_of, covered

    children = children_of(spans)
    linked = forward_links(spans)
    lines = []
    for root in roots:
        total = kids = 0.0
        names = {}
        for span in spans:
            if span.name != root:
                continue
            total += span.end - span.start
            below = [(c.name, c.start, c.end)
                     for c in children.get(id(span), ())]
            below += linked.get(id(span), [])
            kids += covered(span.start, span.end,
                            [(a, b) for _n, a, b in below])
            for name, start, end in below:
                names[name] = names.get(name, 0.0) + (
                    min(end, span.end) - max(start, span.start))
        if not total:
            continue
        residual = total - kids
        parts = ", ".join(f"{n} {1e3 * t:.1f} ms"
                          for n, t in sorted(names.items()))
        lines.append(f"level {root}: {1e3 * total:.1f} ms total, children "
                     f"{1e3 * kids:.1f} ms ({parts}), residual "
                     f"{1e3 * residual:.1f} ms "
                     f"({100 * residual / total:.1f}%)")
    return lines
