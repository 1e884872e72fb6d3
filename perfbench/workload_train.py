"""``train``: ``Trainer.fit`` on the paper profile, as `repro train
MUSE-Net --profile paper` runs it: float64, eager, single process,
batch 8, per-epoch validation.

The fit runs a fixed number of whole epochs, set by ``--seconds`` and
a nominal epoch time, never by measured speed, so the work and the
validation RMSE are the same for a seed whatever the code's speed.
The first epoch is warm-up and is left out of every timing.  No serve
or stream code runs.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

from perfbench import layers, stats
from perfbench.spans import Tracer

NOMINAL_EPOCH_S = 3.0   # one paper-profile epoch on the reference host
SETUPS = 3              # imports, data simulations, model builds (median)
PROBE_EVERY = 4         # optimizer steps between host-speed probes
PROBE_BURST = 200       # host-speed probes right after set-up


def epochs_for(seconds):
    """Measured epochs for a run of ``seconds`` (plus one warm-up)."""
    return max(2, round(seconds / NOMINAL_EPOCH_S))


def _model(data, seed):
    from repro.core import MUSENet
    from repro.experiments.common import muse_config

    return MUSENet(muse_config(data, "paper", seed=seed))


def _build(seed):
    from repro.experiments.common import prepare

    data = prepare("nyc-bike", "paper")
    return data, _model(data, seed)


def fit(data, model, seed, epochs, probe):
    """One fit of ``1 + epochs`` epochs; returns its figures.

    Times are scaled to the reference host speed by ``probe``, run
    after every :data:`PROBE_EVERY` optimizer steps (its own time is
    left out of every figure).  ``step_ms`` and ``eval_ms`` are scaled.
    """
    from repro.experiments.common import get_profile
    from repro.training import TrainConfig, Trainer

    profile = get_profile("paper")
    trainer = Trainer(model, TrainConfig(
        epochs=1 + epochs, batch_size=profile.batch_size, lr=profile.lr,
        patience=profile.patience, seed=seed))
    # Measurement points: when each optimizer step ends, and how long
    # each validation pass takes.
    step_ends = []
    evals = []
    step = trainer.optimizer.step
    predict_scaled = trainer.predict_scaled

    def timed_step():
        step()
        step_ends.append(perf_counter())
        if len(step_ends) % PROBE_EVERY == 0:
            probe()
            step_ends[-1] = perf_counter()

    def timed_predict(batch):
        started = perf_counter()
        try:
            return predict_scaled(batch)
        finally:
            end = perf_counter()
            evals.append((end - started, end))

    trainer.optimizer.step = timed_step
    trainer.predict_scaled = timed_predict
    history = trainer.fit(data)
    per_epoch = -(-len(data.train) // profile.batch_size)
    # Epoch 1 is warm-up.  Each time is scaled by the probe samples
    # taken around it.
    ends = np.asarray(step_ends[per_epoch:]).reshape(-1, per_epoch)
    gaps = [probe.scale(gap, end) for gap, end in
            zip(np.diff(ends, axis=1).ravel(), ends[:, 1:].ravel())]
    times = np.asarray(probe.times)
    fit_s = 0.0
    for k in range(1, 1 + epochs):
        # An epoch's own time, less its probes, ends with its
        # validation pass.
        start, end = evals[k - 1][1], evals[k][1]
        inside = (times > start) & (times <= end)
        fit_s += probe.scale(history.epoch_time[k]
                             - sum(np.asarray(probe.samples)[inside]), end)
    return {
        "steps": len(step_ends),
        "expected_steps": (1 + epochs) * per_epoch,
        "step_ms": [1e3 * g for g in gaps],
        "eval_ms": [1e3 * probe.scale(d, end) for d, end in evals[1:]],
        "val_rmse": float(history.val_rmse[-1]),
        "probe_ms": probe.median_ms(),
        "factor": probe.factor(),
        "op_p50_ms": 1e3 * float(np.median(gaps)),
        "op_rate_per_s": len(data.train) * epochs / fit_s,
        "heavy_op_ms": 1e3 * float(np.mean(
            [probe.scale(d, end) for d, end in evals[1:]])),
    }


def run(ctx):
    out = ctx.outcome
    imports = stats.median(stats.import_seconds(
        ctx.root, "repro.experiments.common", SETUPS))
    import repro.experiments.common  # noqa: F401  (timed just above)
    setups = []
    for _ in range(SETUPS):
        # One build's footprint at a time: drop the previous one first.
        data = model = None
        gc.collect()
        started = perf_counter()
        data, model = _build(ctx.seed)
        setups.append((imports + perf_counter() - started, perf_counter()))
    probe = stats.Probe()
    probe.burst(PROBE_BURST)  # the host's speed during set-up

    epochs = epochs_for(ctx.seconds / 2 if ctx.trace else ctx.seconds)
    arms = {"untraced": fit(data, model, ctx.seed, epochs, probe)}
    if ctx.trace:
        tracer = Tracer()
        layers.install(tracer)
        model = None
        gc.collect()
        model = _model(data, ctx.seed)
        tracer.active = True
        try:
            arms["traced"] = fit(data, model, ctx.seed, epochs,
                                 stats.Probe())
        finally:
            tracer.active = False
            tracer.restore()
        out.per_layer = layers.span_metrics(tracer.spans)
        out.report += layers.levels(
            tracer.spans, ("training.fit", "core.loss", "core.forward"))

    for arm, figures in arms.items():
        out.attempted += figures["steps"]
        step = stats.percentile(figures["step_ms"], 50)
        out.report.append(
            f"[{arm}] {epochs} epochs after 1 warm-up epoch, at the "
            f"reference speed: train_samples_per_s "
            f"{figures['op_rate_per_s']:.2f}; step p50 "
            + (f"{step[0]:.2f} ms (n={step[1]})" if step else "withheld")
            + f"; validation pass mean {np.mean(figures['eval_ms']):.1f} ms "
            f"(n={len(figures['eval_ms'])}); probe median "
            f"{figures['probe_ms']:.4f} ms (run speed factor "
            f"{figures['factor']:.4f})")
        out.report.append(f"[{arm}] train_val_rmse {figures['val_rmse']:.6g} "
                          "(flow units, deterministic for a seed)")
        ok = (np.isfinite(figures["val_rmse"])
              and figures["steps"] == figures["expected_steps"])
        out.report.append(
            f"check [{arm}]: {figures['steps']} of "
            f"{figures['expected_steps']} steps ran, train_val_rmse finite: "
            f"{bool(np.isfinite(figures['val_rmse']))}")
        out.correct &= bool(ok)

    figures = arms["untraced"]
    out.e2e = {
        "setup_s": (stats.median([probe.scale(d, end) for d, end in setups]),
                    len(setups)),
        "peak_rss_mib": (stats.peak_rss_mib(), 1),
        "op_p50_ms": (figures["op_p50_ms"], len(figures["step_ms"])),
        "op_rate_per_s": (figures["op_rate_per_s"], epochs),
        "heavy_op_ms": (figures["heavy_op_ms"], len(figures["eval_ms"])),
    }
    out.names = {"op_p50_ms": "train_step_p50_ms",
                 "op_rate_per_s": "train_samples_per_s",
                 "heavy_op_ms": "train_eval_mean_ms"}
    if ctx.trace:
        traced = arms["traced"]
        out.traced_e2e = {k: traced[k] for k in
                          ("op_p50_ms", "op_rate_per_s", "heavy_op_ms")}
    return out
