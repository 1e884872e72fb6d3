"""``stream``: ``StreamRuntime`` replays of the seeded ``level_shift``
scenario from ``repro.stream.simulate``.

It is the one scenario that runs every stage: ingest, window push,
forecast, drift check, warm retrain, checkpoint, hot swap and
probation.  Each replay draws its own scenario seed from the run seed
and fits its own offline model (set-up).  The number of replays is set
by ``--seconds`` and a nominal replay time, never by measured speed.
No wire, front-end or result-cache code runs.

Each replay is ``simulate.run_scenario``, with each tick timed: ingest
plus the frontier forecast.  Model answers made before the first hot
swap are checked against the offline ``build_samples`` ->
``predict_scaled`` path at atol 0.
"""

from __future__ import annotations

import gc
import tempfile
from time import perf_counter

import numpy as np

from perfbench import layers, stats
from perfbench.spans import Tracer

NOMINAL_REPLAY_S = 9.0   # one level_shift replay on the reference host
SCENARIO = "level_shift"
IMPORTS = 3              # fresh-interpreter imports per run (median)


def replays_for(seconds):
    return max(1, round(seconds / NOMINAL_REPLAY_S))


def setup(seed, run_dir):
    """Scenario, offline fit and a warm runtime for one replay."""
    from repro.stream import simulate as sim

    scenario = sim.make_scenario(SCENARIO, seed=seed)
    state = sim.train_offline(scenario, epochs=8, seed=seed)
    ckpt_dir = tempfile.mkdtemp(prefix="stream-", dir=run_dir)
    runtime = sim.build_runtime(scenario, state, adaptive=True,
                                checkpoint_dir=ckpt_dir, seed=seed)
    return scenario, state, runtime


def replay(scenario, runtime, probe):
    """Replay every tick through ``simulate.run_scenario``; returns the
    timings and the forecasts.

    ``ingest``, ``forecast`` and ``adapt`` are wrapped on the runtime
    instance to time each tick: from the start of its ingest to the end
    of the frontier forecast that follows it.  ``probe`` runs at the
    start of every ingest, outside the timings, and every timing is
    scaled by the probe samples around it.
    """
    from repro.stream import simulate as sim

    ingest, forecast, adapt = runtime.ingest, runtime.forecast, runtime.adapt
    adapts = []  # (duration, end) of each retrain
    ticks = []   # [start, end, retrains before, retrains after, result]

    def timed_ingest(tick):
        probe()
        row = [perf_counter(), None, len(adapts), None, None]
        ticks.append(row)
        try:
            return ingest(tick)
        finally:
            row[1], row[3] = perf_counter(), len(adapts)

    def timed_forecast():
        result = forecast()
        if ticks:
            ticks[-1][1], ticks[-1][4] = perf_counter(), result
        return result

    def timed_adapt():
        started = perf_counter()
        try:
            return adapt()
        finally:
            end = perf_counter()
            adapts.append((end - started, end))

    runtime.ingest = timed_ingest
    runtime.forecast = timed_forecast
    runtime.adapt = timed_adapt
    failed_ticks = 0
    try:
        with runtime:
            results = sim.run_scenario(scenario, runtime)
    except Exception:  # the tick that raised is a failed operation
        failed_ticks, results = 1, []
    tick_ms = []
    live_s = 0.0
    for start, end, before, after, result in ticks:
        # Live time excludes the retrain this tick ran.
        live = end - start - sum(d for d, _end in adapts[before:after])
        live_s += live * probe.factor(end, end - start)
        if after == before and result is not None and (
                result.source == "model"):
            tick_ms.append(1e3 * probe.scale(end - start, end))
    # A candidate the swap gate turned down is the runtime working as
    # designed (serving keeps the old weights), not a failed retrain.
    rejected = sum(1 for reason in runtime.retrain_failures
                   if "failed the swap gate" in reason)
    return {
        "ticks": len(scenario.ticks),
        "tick_ms": tick_ms,
        "adapt_s": [probe.scale(d, end) for d, end in adapts],
        "retrain_failures": len(runtime.retrain_failures) - rejected,
        "gate_rejections": rejected,
        "failed_ticks": failed_ticks,
        "live_s": live_s,
        "results": results,
    }


def check(scenario, state, seed, results):
    """Max |err| of pre-swap model answers vs the offline path."""
    from repro.data.windows import build_samples
    from repro.stream import simulate as sim
    from repro.training import Trainer

    scaler = sim.fit_scaler(scenario)
    model = sim.make_model(scenario.grid, scenario.periodicity, seed=seed)
    model.load_state_dict(state)
    trainer = Trainer(model)
    scaled = scaler.transform(scenario.flows)
    worst, checked = 0.0, 0
    for result, _truth in results:
        if result.source != "model" or result.generation != 0:
            continue
        batch = build_samples(scaled, scenario.periodicity, [result.index])
        offline = scaler.inverse_transform(
            np.asarray(trainer.predict_scaled(batch))[0])
        worst = max(worst, float(np.abs(result.flows - offline).max()))
        checked += 1
    return worst, checked


def replay_one(seed, run_dir, probe, tracer=None):
    """Set up, replay and check one scenario seed; returns its row.

    Only the row outlives the call, so one replay's scenario, model
    and runtime are gone before the next set-up builds its own.
    """
    from repro.stream import simulate as sim

    gc.collect()  # the previous replay's runtime holds reference cycles
    started = perf_counter()
    scenario, state, runtime = setup(seed, run_dir)
    setup_end = perf_counter()
    if tracer is not None:
        tracer.active = True
    try:
        row = replay(scenario, runtime, probe)
    finally:
        if tracer is not None:
            tracer.active = False
    report = sim.evaluate_results(scenario, row["results"])
    row["recovery_ratio"] = (report["recovery"]["nrmse"]
                             / report["pre"]["nrmse"])
    worst, checked = check(scenario, state, seed, row["results"])
    row["ok"] = bool(worst == 0.0 and checked > 0
                     and np.isfinite(row["recovery_ratio"]))
    row["sources"] = report["sources"]
    row["setup_s"] = setup_end - started
    row["setup_end"] = setup_end
    row["line"] = (
        f"replay seed {seed}: {row['ticks']} ticks, "
        f"{len(row['adapt_s'])} retrains ({row['retrain_failures']} failed, "
        f"{row['gate_rejections']} rejected by the swap gate), sources "
        f"{report['sources']}, recovery_ratio {row['recovery_ratio']:.4f}; "
        f"check: {checked} pre-swap model answers == offline max|err| "
        f"{worst:.3g} (atol 0)")
    row["results"] = None
    return row


def run(ctx):
    out = ctx.outcome
    imports = stats.median(stats.import_seconds(
        ctx.root, "repro.stream.simulate", IMPORTS))
    count = replays_for(ctx.seconds / 2 if ctx.trace else ctx.seconds)
    seeds = np.random.default_rng(ctx.seed).integers(0, 2**31, count)
    arms = {"untraced": seeds}
    if ctx.trace:
        arms["traced"] = seeds  # same inputs: the difference is overhead
        tracer = Tracer()
        layers.install(tracer)
    figures = {}
    fallback = [0, 0]
    try:
        for arm, arm_seeds in arms.items():
            rows = []
            setups = []
            probe = stats.Probe()
            for seed in arm_seeds:
                row = replay_one(int(seed), ctx.run_dir, probe,
                                 tracer if arm == "traced" else None)
                setups.append((imports + row["setup_s"], row["setup_end"]))
                out.correct &= row["ok"]
                out.report.append(f"[{arm}] {row['line']}")
                out.attempted += row["ticks"] + len(row["adapt_s"])
                out.failed += row["failed_ticks"] + row["retrain_failures"]
                if arm == "traced":
                    sources = row["sources"]
                    fallback[0] += sum(n for s, n in sources.items()
                                       if s != "model")
                    fallback[1] += sum(sources.values())
                rows.append(row)
            figures[arm] = _figures(rows, probe, setups)
    finally:
        if ctx.trace:
            tracer.restore()

    for arm, fig in figures.items():
        tail = stats.highest_percentile(fig["tick_ms"], levels=(99, 95, 90))
        out.report.append(
            f"[{arm}] at the reference speed: tick_p50_ms "
            f"{fig['op_p50_ms']:.3f} ms (n={len(fig['tick_ms'])}); "
            "diagnostic tick tail "
            + (f"p{tail[0]:g} {tail[1]:.3f} ms (n={tail[2]})" if tail
               else "withheld (too few samples)")
            + f"; ticks_per_s {fig['op_rate_per_s']:.2f}; retrain_s "
            f"{fig['heavy_op_ms'] / 1e3:.3f} s (n={fig['retrains']}); probe "
            f"median {fig['probe_ms']:.4f} ms (run speed factor "
            f"{fig['factor']:.4f})")
        out.report.append(f"[{arm}] recovery_ratio mean "
                          f"{fig['recovery_ratio']:.4f} (n={len(seeds)}, "
                          "deterministic for a seed)")
    fig = figures["untraced"]
    out.e2e = {
        "setup_s": (fig["setup_s"], fig["setups"]),
        "peak_rss_mib": (stats.peak_rss_mib(), 1),
        "op_p50_ms": (fig["op_p50_ms"], len(fig["tick_ms"])),
        "op_rate_per_s": (fig["op_rate_per_s"], fig["ticks"]),
        "heavy_op_ms": (fig["heavy_op_ms"], fig["retrains"]),
    }
    out.names = {"op_p50_ms": "tick_p50_ms", "op_rate_per_s": "ticks_per_s",
                 "heavy_op_ms": "retrain_mean_ms"}
    if ctx.trace:
        traced = figures["traced"]
        out.traced_e2e = {k: traced[k] for k in
                          ("op_p50_ms", "op_rate_per_s", "heavy_op_ms")}
        out.per_layer = layers.span_metrics(tracer.spans)
        out.per_layer["stream.degrade.fallback_share"] = (
            fallback[0] / fallback[1] if fallback[1] else 0.0)
        out.report += layers.levels(
            tracer.spans, ("stream.ingest", "stream.adapt",
                           "stream.forecast", "training.fit"))
    return out


def _figures(rows, probe, setups):
    """End-to-end figures of one arm, at the reference host speed (each
    set-up is scaled by the probes of the replay that follows it)."""
    tick_ms = [t for row in rows for t in row["tick_ms"]]
    adapt_s = [a for row in rows for a in row["adapt_s"]]
    ticks = sum(row["ticks"] for row in rows)
    return {
        "tick_ms": tick_ms,
        "ticks": ticks,
        "retrains": len(adapt_s),
        "probe_ms": probe.median_ms(),
        "factor": probe.factor(),
        "op_p50_ms": float(np.median(tick_ms)) if tick_ms else float("nan"),
        "op_rate_per_s": ticks / sum(row["live_s"] for row in rows),
        "heavy_op_ms": (1e3 * float(np.mean(adapt_s)) if adapt_s
                        else float("nan")),
        "recovery_ratio": float(np.mean([r["recovery_ratio"] for r in rows])),
        "setup_s": stats.median([probe.scale(d, end) for d, end in setups]),
        "setups": len(setups),
    }
