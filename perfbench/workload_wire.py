"""``wire``: `repro serve` in its own process, driven over two connections.

The server runs with its defaults (in-process forwards, 2 ms batching
window, result cache on).  One generator process drives it over two
connections from at most two threads:

* open loop — connection 1 sends single-sample replay ``query`` ops
  at a light rate; connection 2 sends ``forecast`` reads of the live
  full-grid forecast at a higher rate and pushes the next raw tick
  after every :data:`READS_PER_PUSH` reads, so the read after a push
  misses the result cache and the others hit it.  Arrivals follow a
  fixed schedule, one per slot with a jitter drawn from the seed; each
  request is timed from when it was due.
* closed loop — both connections send ``query`` ops back to back;
  capacity counts the replies within :data:`LATENCY_LIMIT_S`.

Query rows are checked against ``Trainer.predict_scaled`` of the same
seeded model, and every read against the offline forward of
``build_samples`` at its index.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from time import perf_counter

import numpy as np

from perfbench import layers, spans, stats

SERVE_ARGS = ["serve", "MUSE-Net", "--profile", "paper",
              "--listen", "127.0.0.1:0"]
QUERY_RATE = 20.0        # open-loop queries/s: batches stay at one sample
READ_RATE = 100.0        # open-loop forecast reads/s
READS_PER_PUSH = 20      # so ~5 % of reads miss the result cache
LATENCY_LIMIT_S = 0.05   # closed-loop replies slower than this miss
OPEN_SHARE = 0.6         # share of the run in the open-loop phase
SETUPS = 3               # server launches per run; setup_s is their median
SEGMENTS = 8             # per phase, with a probe burst before each
PROBE_BURST = 100        # host-speed probes at each idle point
JITTER = 0.25            # arrival jitter, as a share of the slot
WARMUP_REQUESTS = 5      # per op, untimed, after each launch
ATOL = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 1e-6}


class Server:
    """One `repro serve` process, plain or through the traced launcher."""

    def __init__(self, ctx, tag, traced):
        self.ctx = ctx
        self.tag = tag
        self.traced = traced
        self.address_file = os.path.join(ctx.run_dir, f"address-{tag}")
        self.spans_file = os.path.join(ctx.run_dir, f"spans-{tag}.json")
        self.log = os.path.join(ctx.run_dir, f"server-{tag}.log")
        self.proc = None

    def start(self):
        """Launch and wait until the server answers; returns seconds."""
        from repro.serve import ForecastClient

        args = SERVE_ARGS + ["--address-file", self.address_file]
        if self.traced:
            cmd = [sys.executable, os.path.join(self.ctx.root, "perfbench",
                                                "serve_launcher.py"),
                   self.spans_file, *args]
        else:
            cmd = [sys.executable, "-m", "repro", *args]
        env = dict(os.environ, PYTHONPATH=os.path.join(self.ctx.root, "src"))
        started = perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(cmd, env=env, cwd=self.ctx.root,
                                         stdout=log, stderr=subprocess.STDOUT)
        deadline = started + 120.0
        while not os.path.exists(self.address_file):
            if self.proc.poll() is not None or perf_counter() > deadline:
                raise RuntimeError(f"server {self.tag} did not start:\n"
                                   + self.log_tail())
            time.sleep(0.005)
        with open(self.address_file, encoding="utf-8") as fh:
            self.address = fh.read().strip()
        with ForecastClient(self.address, timeout=30.0) as client:
            client.ping()
        return perf_counter() - started

    def clients(self):
        from repro.serve import ForecastClient

        return [ForecastClient(self.address, timeout=10.0) for _ in range(2)]

    def peak_rss_mib(self):
        return stats.peak_rss_mib(self.proc.pid)

    def stop(self):
        """Ask the server to drain and wait for it; returns its spans."""
        from repro.serve import ForecastClient

        try:
            with ForecastClient(self.address, timeout=10.0) as client:
                client.shutdown()
            code = self.proc.wait(timeout=60.0)
        except Exception:
            self.proc.kill()
            self.proc.wait(timeout=30.0)
            raise
        if code != 0:
            raise RuntimeError(f"server {self.tag} exited {code}:\n"
                               + self.log_tail())
        if not self.traced:
            return None
        with open(self.spans_file, encoding="utf-8") as fh:
            return spans.load(json.load(fh))

    def kill(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30.0)

    def log_tail(self):
        try:
            with open(self.log, encoding="utf-8", errors="replace") as fh:
                return "".join(fh.readlines()[-20:])
        except OSError:
            return "(no server log)"


def arrivals(rng, rate, horizon):
    """Due offsets (s) in ``[0, horizon)`` at ``rate``/s.

    One arrival per ``1 / rate`` slot, at the slot's middle moved by a
    uniform jitter of up to :data:`JITTER` of the slot.  Consecutive
    arrivals are at least half a slot apart, so at these rates a
    request is never due while the one before it on its connection is
    still in flight: a latency timed from due carries no queueing the
    generator made.
    """
    slot = 1.0 / rate
    middles = slot * (np.arange(int(rate * horizon)) + 0.5)
    return middles + slot * rng.uniform(-JITTER, JITTER, middles.size)


class Plan:
    """Everything the generator sends, drawn from the seed up front."""

    def __init__(self, seed, seconds, num_queries):
        rng = np.random.default_rng(seed)
        self.open_s = OPEN_SHARE * seconds
        self.closed_s = seconds - self.open_s
        self.query_due = arrivals(rng, QUERY_RATE, self.open_s)
        self.read_due = arrivals(rng, READ_RATE, self.open_s)
        self.query_index = rng.integers(0, num_queries, len(self.query_due))
        self.closed_index = rng.integers(0, num_queries, (2, 50_000))


class Data:
    """The generator's copy of the served data: push frames and the
    offline reference."""

    def __init__(self):
        from repro.experiments.common import prepare

        self.data = prepare("nyc-bike", "paper")
        self.test = self.data.test
        self.warm_to = int(self.test.indices[0])
        self.flows = self.data.dataset.flows
        # Pushes stay inside the replay: the read after the last push
        # must still have a target interval.
        self.max_pushes = len(self.flows) - self.warm_to - 1


def _call(fn, *args):
    """``(ok, reply)``; a refusal, error frame or timeout is a failure."""
    from repro.serve.frontend import RequestError
    from repro.serve.wire import FrameError

    try:
        return True, fn(*args)
    except (RequestError, FrameError, OSError) as exc:
        return False, exc


def warm_up(server):
    started = perf_counter()
    clients = server.clients()
    try:
        for k in range(WARMUP_REQUESTS):
            clients[0].query(k)
            clients[1].forecast()
    finally:
        for client in clients:
            client.close()
    return perf_counter() - started


def drive(server, data, plan, probe):
    """Run both phases against ``server``; returns the request log.

    Each phase runs as :data:`SEGMENTS` equal segments.  A ``probe``
    burst runs before every segment and after the last one, while no
    request is in flight, so the host's speed is sampled all through
    each phase and never beside the workload.
    """
    log = {"query": [], "read": [], "push": [], "closed": [[], []],
           "phases": {}, "closed_spans": [], "steal": {}}
    clients = server.clients()
    reads = {"after_push": False, "pushes": 0}
    closed_indices = [iter(plan.closed_index[0]), iter(plan.closed_index[1])]

    def wait_until(target):
        pause = target - perf_counter()
        if pause > 0:
            time.sleep(pause)

    def open_queries(t0, lo, hi):
        for due, i in zip(plan.query_due, plan.query_index):
            if not lo <= due < hi:
                continue
            target = t0 + due - lo
            wait_until(target)
            sent = perf_counter()
            ok, reply = _call(clients[0].query, int(i))
            log["query"].append((target, sent, perf_counter(), ok, int(i),
                                 reply))

    def open_reads(t0, lo, hi):
        for k, due in enumerate(plan.read_due):
            if not lo <= due < hi:
                continue
            target = t0 + due - lo
            wait_until(target)
            sent = perf_counter()
            ok, reply = _call(clients[1].forecast)
            log["read"].append((target, sent, perf_counter(), ok,
                                reads["after_push"], reply))
            reads["after_push"] = False
            pushes = reads["pushes"]
            if (k + 1) % READS_PER_PUSH == 0 and pushes < data.max_pushes:
                frame = data.flows[data.warm_to + pushes]
                sent = perf_counter()
                ok, reply = _call(clients[1].push, frame)
                log["push"].append((sent, sent, perf_counter(), ok))
                reads["pushes"] = pushes + 1
                reads["after_push"] = ok

    def closed(conn, end):
        for i in closed_indices[conn]:
            if perf_counter() >= end:
                break
            sent = perf_counter()
            ok, reply = _call(clients[conn].query, int(i))
            log["closed"][conn].append((sent, sent, perf_counter(), ok,
                                        int(i), reply))

    def both(main, other, limit):
        """``main()`` on this thread and ``other()`` on a second, at once."""
        thread = threading.Thread(target=other, name="conn-2", daemon=True)
        thread.start()
        main()
        thread.join(timeout=limit + 120.0)
        if thread.is_alive():
            raise RuntimeError("connection 2 did not finish its segment")

    def phase(name, length, segment):
        step = length / SEGMENTS
        first = None
        wanted = (0, 0)  # host CPU ticks (busy, stolen) over the segments
        for j in range(SEGMENTS):
            probe.burst(PROBE_BURST)
            start = perf_counter() + 0.02
            first = start if first is None else first
            before = stats.cpu_times()
            segment(start, j * step, (j + 1) * step)
            wanted = tuple(w + a - b for w, a, b in
                           zip(wanted, stats.cpu_times(), before))
        log["phases"][name] = (first, perf_counter())
        log["steal"][name] = stats.steal_share((0, 0), wanted)

    def open_segment(start, lo, hi):
        both(lambda: open_queries(start, lo, hi),
             lambda: open_reads(start, lo, hi), hi - lo)

    def closed_segment(start, lo, hi):
        wait_until(start)
        end = start + hi - lo
        rows = len(log["closed"][0]) + len(log["closed"][1])
        both(lambda: closed(0, end), lambda: closed(1, end), hi - lo)
        done = [row[2] for conn in log["closed"] for row in conn]
        if len(done) > rows:
            log["closed_spans"].append((start, max(done)))

    try:
        phase("open", plan.open_s, open_segment)
        phase("closed", plan.closed_s, closed_segment)
        probe.burst(PROBE_BURST)
    finally:
        for client in clients:
            client.close()
    return log


def phase_factors(log, probe):
    """``{phase: factor}``: each phase's timings are scaled by the probe
    bursts taken before, between and right after its segments, while no
    request was in flight (:meth:`perfbench.stats.Probe.factor`)."""
    return {phase: probe.factor(end, end - start)
            for phase, (start, end) in log["phases"].items()}


def summarize(log, factors):
    """End-to-end figures and the request accounting for one drive.

    ``factors`` (:func:`phase_factors`) scale the metrics to the
    reference host speed; the ``*_ms`` lists stay as measured.
    """
    def latency(rows):
        return [done - due for due, _sent, done, ok, *_ in rows if ok]

    def p50_ms(rows):
        values = latency(rows)
        return 1e3 * stats.median(values) if values else float("nan")

    queries = log["query"]
    reads = log["read"]
    closed = log["closed"][0] + log["closed"][1]
    misses = [r for r in reads if r[4]]
    hits = [r for r in reads if not r[4]]
    within = sum(1 for _due, sent, done, ok, *_ in closed
                 if ok and done - sent <= LATENCY_LIMIT_S)
    # Each closed-loop segment lasts from its start to its last reply.
    closed_s = sum(end - start for start, end in log["closed_spans"])
    counts = {}
    for op, rows in (("query", queries), ("read", reads),
                     ("push", log["push"]), ("closed_query", closed)):
        failed = sum(1 for row in rows if not row[3])
        counts[op] = (len(rows), len(rows) - failed, failed)
    return {
        "op_p50_ms": p50_ms(queries) * factors["open"],
        "op_rate_per_s": (within / (closed_s * factors["closed"])
                          if closed_s else float("nan")),
        "heavy_op_ms": p50_ms(misses) * factors["open"],
        "query_ms": [1e3 * v for v in latency(queries)],
        "read_ms": [1e3 * v for v in latency(reads)],
        "hit_ms": [1e3 * v for v in latency(hits)],
        "miss_ms": [1e3 * v for v in latency(misses)],
        "push_ms": [1e3 * (done - sent) for _d, sent, done, ok in log["push"]
                    if ok],
        "closed_ms": [1e3 * (done - sent) for _d, sent, done, ok, *_ in closed
                      if ok],
        "within_limit": within,
        "steal": log.get("steal", {}),
        "counts": counts,
        "lateness": {
            "conn1": stats.lateness([r[0] for r in queries],
                                    [r[1] for r in queries]),
            "conn2": stats.lateness([r[0] for r in reads],
                                    [r[1] for r in reads]),
        },
    }


def check(log, data, tag, report):
    """Served rows and reads against the offline path; returns ok."""
    from repro.core import MUSENet
    from repro.data.windows import build_samples
    from repro.experiments.common import muse_config
    from repro.training import Trainer

    model = MUSENet(muse_config(data.data, "paper", seed=0))
    trainer = Trainer(model)
    offline = trainer.predict_scaled(data.test)
    atol = ATOL[offline.dtype]
    worst_query = 0.0
    for row in log["query"] + log["closed"][0] + log["closed"][1]:
        if row[3]:
            worst_query = max(worst_query, float(np.abs(
                np.asarray(row[5])[0] - offline[row[4]]).max()))
    reads = [(r[5][1], r[5][0]) for r in log["read"] if r[3]]
    indices = sorted({index for index, _ in reads})
    worst_read = 0.0
    if indices:
        scaled = data.data.scaler.transform(data.flows)
        batch = build_samples(scaled, data.data.periodicity, indices)
        reference = dict(zip(indices, trainer.predict_scaled(batch)))
        for index, forecast in reads:
            worst_read = max(worst_read, float(np.abs(
                forecast - reference[index]).max()))
    report.append(f"[{tag}] check: query rows == Trainer.predict_scaled "
                  f"max|err| {worst_query:.3g}; forecast reads == offline "
                  f"forward at {len(indices)} indices max|err| "
                  f"{worst_read:.3g} (atol {atol:g})")
    return worst_query <= atol and worst_read <= atol


def _describe(name, values):
    """``<name>_p50_ms`` and ``_p99_ms`` with their sample count, or why
    each is withheld; a withheld p99 is followed by the highest
    percentile the sample supports."""
    parts = []
    for q in (50, 99):
        found = stats.percentile(values, q)
        if found is None:
            parts.append(f"{name}_p{q}_ms withheld (n={len(values)}, fewer "
                         f"than {stats.MIN_BEYOND} beyond)")
        else:
            parts.append(f"{name}_p{q}_ms {found[0]:.3f} ms (n={found[1]})")
    if stats.percentile(values, 99) is None:
        tail = stats.highest_percentile(values, levels=(95, 90))
        if tail is not None:
            parts.append(f"{name}_p{tail[0]}_ms {tail[1]:.3f} ms "
                         f"(n={tail[2]})")
    return "; ".join(parts)


def _report_drive(tag, figures, probe, report):
    report.append(f"[{tag}] open loop, from due: "
                  + _describe("query", figures["query_ms"]))
    report.append(f"[{tag}] open loop, from due: "
                  + _describe("read", figures["read_ms"]))
    report.append(f"[{tag}] " + _describe("read_hit", figures["hit_ms"]))
    report.append(f"[{tag}] " + _describe("read_miss", figures["miss_ms"]))
    report.append(f"[{tag}] " + _describe("push", figures["push_ms"]))
    report.append(f"[{tag}] " + _describe("closed_query",
                                          figures["closed_ms"]))
    for op, (attempted, ok, failed) in figures["counts"].items():
        report.append(f"[{tag}] {op}: attempted {attempted}, succeeded {ok},"
                      f" failed {failed}")
    for conn, late in figures["lateness"].items():
        report.append(f"[{tag}] generator lateness {conn}: p50 "
                      f"{late['p50_ms']:.3f} ms, max {late['max_ms']:.2f} ms,"
                      f" {100 * late['late_share']:.1f}% sent >1 ms late "
                      f"(n={late['n']})")
    report.append(f"[{tag}] closed loop: {figures['within_limit']} replies "
                  f"within {LATENCY_LIMIT_S * 1e3:.0f} ms")
    report.append(f"[{tag}] host steal: " + ", ".join(
        f"{phase} {100 * share:.1f}%"
        for phase, share in figures["steal"].items()))
    report.append(f"[{tag}] the ms above are as measured; the metrics "
                  "scale each phase by the probe bursts around it: "
                  + ", ".join(f"{phase} {factor:.4f}"
                              for phase, factor in figures["factors"].items())
                  + f" (probe median {probe.median_ms():.4f} ms, "
                  f"n={len(probe.samples)})")


def _launch(ctx, tag, traced):
    server = Server(ctx, tag, traced)
    try:
        setup = server.start() + warm_up(server)
    except BaseException:
        server.kill()
        raise
    return server, setup


def _arm(ctx, name, data, plan, setups_wanted):
    """Launch ``setups_wanted`` servers, drive the last one; returns
    ``(log, spans, figures, probe)``."""
    probe = stats.Probe()
    setups = []
    for k in range(setups_wanted):
        probe.burst(PROBE_BURST)
        last = k == setups_wanted - 1
        server, setup = _launch(ctx, name if last else f"{name}-setup{k}",
                                last and name == "traced")
        setups.append((setup, perf_counter()))
        if not last:
            server.stop()
    try:
        log = drive(server, data, plan, probe)
        rss = server.peak_rss_mib()
    except BaseException:
        server.kill()
        raise
    server_spans = server.stop()
    factors = phase_factors(log, probe)
    figures = summarize(log, factors)
    figures["setup_s"] = stats.median([probe.scale(d, end)
                                       for d, end in setups])
    figures["setups"] = len(setups)
    figures["peak_rss_mib"] = rss
    figures["factors"] = factors
    return log, server_spans, figures, probe


def run(ctx):
    """Run the workload; returns the filled ``ctx.outcome``."""
    out = ctx.outcome
    data = Data()
    plan_seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    plan = Plan(ctx.seed, plan_seconds, len(data.test))
    arms = {"untraced": _arm(ctx, "untraced", data, plan,
                             1 if ctx.trace else SETUPS)}
    if ctx.trace:
        arms["traced"] = _arm(ctx, "traced", data, plan, 1)
    for arm, (log, _spans, figures, probe) in arms.items():
        _report_drive(arm, figures, probe, out.report)
        for attempted, ok, failed in figures["counts"].values():
            out.attempted += attempted
            out.failed += failed
        out.correct &= check(log, data, arm, out.report)

    figures = arms["untraced"][2]
    out.e2e = {
        "setup_s": (figures["setup_s"], figures["setups"]),
        "peak_rss_mib": (figures["peak_rss_mib"], 1),
        "op_p50_ms": (figures["op_p50_ms"], len(figures["query_ms"])),
        "op_rate_per_s": (figures["op_rate_per_s"], figures["within_limit"]),
        "heavy_op_ms": (figures["heavy_op_ms"], len(figures["miss_ms"])),
    }
    out.names = {"op_p50_ms": "query_p50_ms",
                 "op_rate_per_s": "query_capacity_rps",
                 "heavy_op_ms": "read_miss_p50_ms"}
    if ctx.trace:
        log, server_spans, traced, _probe = arms["traced"]
        out.traced_e2e = {k: traced[k] for k in out.e2e}
        out.per_layer = wire_layers(log, server_spans, out.report)
    return out


def wire_layers(log, server_spans, report):
    """Per-layer metrics of the traced server over the measured phases."""
    open_start, open_end = log["phases"]["open"]
    closed_start, closed_end = log["phases"]["closed"]

    def window(start, end):
        return [s for s in server_spans if s.start >= start and s.end <= end]

    measured = window(open_start, closed_end)
    metrics = layers.span_metrics(measured)
    opened = window(open_start, open_end)
    wait, size = layers.batcher_metrics(opened)
    metrics["serve.batcher.queue_wait_ms"] = wait
    metrics["serve.batcher.batch_size"] = size
    wait, size = layers.batcher_metrics(window(closed_start, closed_end))
    metrics["serve.batcher.queue_wait_ms.closed_loop"] = wait
    metrics["serve.batcher.batch_size.closed_loop"] = size
    lookups = [s.attrs["kind"] for s in opened
               if s.name == "serve.results.lookup"]
    metrics["serve.results.hit_ratio"] = (
        sum(1 for kind in lookups if kind != "owner") / len(lookups)
        if lookups else 0.0)
    metrics["serve.results.forwards"] = float(
        sum(1 for kind in lookups if kind == "owner"))
    # Front-end self time: the client round trip minus the server call
    # the op made (the top-level span inside the round trip's interval).
    for metric, rows, name in (
            ("serve.frontend.query_self_ms", log["query"],
             "serve.server.forecast"),
            ("serve.frontend.read_self_ms", log["read"],
             "serve.server.forecast_tick")):
        calls = sorted((s.start, s.end) for s in opened
                       if s.name == name and s.parent is None)
        starts = [c[0] for c in calls]
        selfs = []
        for _due, sent, done, ok, *_ in rows:
            if not ok:
                continue
            k = int(np.searchsorted(starts, sent))
            if k < len(calls) and calls[k][1] <= done:
                selfs.append((done - sent) - (calls[k][1] - calls[k][0]))
        metrics[metric] = 1e3 * float(np.median(selfs)) if selfs else 0.0
    report += layers.levels(
        measured, ("serve.server.forecast", "serve.server.forecast_tick",
                   "core.forward"))
    return metrics
