"""Shared disruption scenarios for the streaming runtime.

One scenario definition drives the ``repro stream`` CLI, the
``bench_stream_robustness`` benchmark, and the integration tests, so
the numbers they report describe the same stream.

Every scenario shares one geometry — a 4x4 grid at 180-minute
intervals (8 samples/day) with ``(L_c, L_p, L_t) = (3, 2, 1)``
windows, the smallest configuration where closeness, period, *and*
trend are all live (``min_index = 56`` = one week) — and one shape:
an offline training prefix the model and scaler are fitted on,
followed by a live segment delivered as ticks.  Scenarios differ in
what the live segment does to the stream:

============  ======================================================
``clean``     in-order, complete, uncorrupted (the bit-identity arm)
``late``      arrivals shuffled within the watermark + duplicates
``dropout``   random sensor cells report NaN for a stretch
``corrupt``   a few frames carry Inf / negative flows (quarantine)
``outage``    a contiguous run of intervals never arrives (gaps)
``level_shift``  demand steps to 1.6x mid-stream (drift + retrain)
``closure``   one cell's flows drop to zero for two days
``surge``     one cell's flows triple for two days
============  ======================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import MuseConfig, MUSENet
from repro.data.generator import PatternConfig, generate_pattern_flows
from repro.data.grid import GridSpec
from repro.data.periodicity import MultiPeriodicity
from repro.data.scaler import MinMaxScaler
from repro.metrics import rmse
from repro.stream.adapt import AdaptationConfig, prepare_rolling_data
from repro.stream.runtime import StreamConfig, StreamRuntime
from repro.stream.ticks import Tick
from repro.training.trainer import TrainConfig, Trainer

__all__ = ["SCENARIOS", "StreamScenario", "make_scenario", "make_model",
           "model_factory", "train_offline", "build_runtime",
           "run_scenario", "evaluate_results"]

SCENARIOS = ("clean", "late", "dropout", "corrupt", "outage",
             "level_shift", "closure", "surge")

_TRAIN_DAYS = 16          # offline prefix: 128 intervals
_STREAM_DAYS = 10         # live segment: 80 ticks
_DISRUPT_AT = 24          # live ticks before the disruption begins
_FEATURE_RANGE = (-0.9, 0.9)


def stream_geometry():
    """The shared (grid, periodicity) of every scenario."""
    grid = GridSpec(4, 4, interval_minutes=180)
    periodicity = MultiPeriodicity(3, 2, 1,
                                   samples_per_day=grid.samples_per_day)
    return grid, periodicity


@dataclass
class StreamScenario:
    """One reproducible disruption scenario."""

    name: str
    grid: GridSpec
    periodicity: MultiPeriodicity
    flows: np.ndarray          # ground truth, (T, 2, H, W)
    train_end: int             # offline prefix length
    ticks: list                # live arrivals, in arrival order
    disruption_start: int      # absolute index; len(flows) for "clean"
    description: str = ""
    meta: dict = field(default_factory=dict)


def _base_flows(num_intervals, grid, seed, pattern_overrides=None):
    config = PatternConfig(noise_std=1.0, **(pattern_overrides or {}))
    return generate_pattern_flows(grid, num_intervals, config=config,
                                  seed=seed)


def make_scenario(name, seed=0):
    """Build one named scenario (see module docstring for the menu)."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    grid, periodicity = stream_geometry()
    rng = np.random.default_rng(seed + 7)
    train_end = grid.intervals_for_days(_TRAIN_DAYS)
    total = train_end + grid.intervals_for_days(_STREAM_DAYS)
    disrupt_at = train_end + _DISRUPT_AT

    overrides = {}
    if name == "level_shift":
        overrides["level_shift"] = (disrupt_at, 1.6)
    elif name == "closure":
        overrides["closures"] = [(disrupt_at, 16, 1, 2)]
    elif name == "surge":
        overrides["surges"] = [(disrupt_at, 16, 2, 1, 3.0)]
    flows = _base_flows(total, grid, seed, overrides)

    live = list(range(train_end, total))
    frames = {i: flows[i].copy() for i in live}
    dropped = set()
    duplicates = []

    if name == "late":
        # Shuffle each 3-tick block after the disruption point — all
        # displacements stay inside the watermark (4).
        for start in range(disrupt_at, total - 3, 3):
            block = live.index(start)
            segment = live[block:block + 3]
            rng.shuffle(segment)
            live[block:block + 3] = segment
        # A few duplicated arrivals: re-sent ticks the ingestor must
        # quarantine rather than double-count.
        duplicates = sorted(rng.choice(
            np.arange(disrupt_at, total), size=4, replace=False).tolist())
    elif name == "dropout":
        for index in range(disrupt_at, min(disrupt_at + 24, total)):
            mask = rng.random(frames[index].shape) < 0.15
            frames[index][mask] = np.nan
    elif name == "corrupt":
        for index in range(disrupt_at, min(disrupt_at + 8, total), 2):
            frames[index][0, 0, 0] = np.inf
        bad = disrupt_at + 9
        if bad < total:
            frames[bad][1, 1, 1] = -5.0
    elif name == "outage":
        dropped = set(range(disrupt_at, min(disrupt_at + 6, total)))
    elif name == "clean":
        disrupt_at = total  # nothing ever goes wrong

    ticks = []
    for index in live:
        if index in dropped:
            continue
        ticks.append(Tick(index=index, frame=frames[index]))
        if index in duplicates:
            ticks.append(Tick(index=index, frame=frames[index].copy()))

    return StreamScenario(
        name=name, grid=grid, periodicity=periodicity, flows=flows,
        train_end=train_end, ticks=ticks, disruption_start=disrupt_at,
        description={
            "clean": "in-order complete stream (bit-identity arm)",
            "late": "arrivals shuffled within the watermark + duplicates",
            "dropout": "15% of sensor cells NaN for 3 days",
            "corrupt": "Inf / negative frames (quarantined, become gaps)",
            "outage": "6 consecutive intervals never arrive",
            "level_shift": "demand steps to 1.6x (drift -> warm retrain)",
            "closure": "cell (1,2) closed for 2 days",
            "surge": "cell (2,1) at 3x for 2 days",
        }[name],
    )


# ----------------------------------------------------------------------
# Offline fitting (the model the stream starts from)
# ----------------------------------------------------------------------
def make_model(grid, periodicity, seed=0):
    """A stream-scale MUSE-Net for the shared geometry."""
    return MUSENet(MuseConfig(
        len_closeness=periodicity.len_closeness,
        len_period=periodicity.len_period,
        len_trend=periodicity.len_trend,
        height=grid.height, width=grid.width,
        rep_channels=8, latent_interactive=16, res_blocks=1,
        plus_channels=2, decoder_hidden=32, gen_weight=0.05, seed=seed))


def model_factory(grid, periodicity, seed=0):
    """Zero-argument factory for :class:`StreamRuntime` adaptation."""
    return lambda: make_model(grid, periodicity, seed=seed)


def fit_scaler(scenario: StreamScenario):
    """The offline scaler: fitted on the training prefix only."""
    return MinMaxScaler(_FEATURE_RANGE).fit(
        scenario.flows[:scenario.train_end])


def train_offline(scenario: StreamScenario, epochs=8, seed=0, verbose=False):
    """Fit the serving model on the scenario's training prefix.

    Returns the trained ``state_dict`` — arms of a comparison re-seed
    fresh models from it so adaptive and frozen runs start from
    identical weights.
    """
    scaler = fit_scaler(scenario)
    data = prepare_rolling_data(scenario.flows[:scenario.train_end], scaler,
                                scenario.periodicity, val_fraction=0.15)
    model = make_model(scenario.grid, scenario.periodicity, seed=seed)
    trainer = Trainer(model, TrainConfig(epochs=epochs, lr=2e-3,
                                         batch_size=8, seed=seed,
                                         verbose=verbose))
    trainer.fit(data)
    return model.state_dict()


def build_runtime(scenario: StreamScenario, state, adaptive=True,
                  checkpoint_dir=None, seed=0, config: StreamConfig = None):
    """A warm-started runtime serving the trained weights.

    Each call builds an independent model and scaler (the runtime
    mutates both), so several arms can replay the same scenario.
    """
    if config is None:
        config = StreamConfig(
            auto_adapt=adaptive,
            adaptation=AdaptationConfig(step_budget=240, lr=3e-3,
                                        recent_boost=6, seed=seed))
    model = make_model(scenario.grid, scenario.periodicity, seed=seed)
    model.load_state_dict(state)
    runtime = StreamRuntime(
        model, fit_scaler(scenario), scenario.periodicity,
        scenario.flows.shape[1:], scenario.grid.samples_per_day,
        config=config,
        model_factory=(model_factory(scenario.grid, scenario.periodicity,
                                     seed=seed) if adaptive else None),
        checkpoint_dir=checkpoint_dir)
    runtime.warm_start(scenario.flows[:scenario.train_end])
    return runtime


# ----------------------------------------------------------------------
# Replay + evaluation
# ----------------------------------------------------------------------
def run_scenario(scenario: StreamScenario, runtime: StreamRuntime):
    """Replay the scenario's arrivals through a started runtime.

    Before each truth tick can land, the current stream frontier is
    forecast (exactly once per interval), mirroring a live deployment
    where the answer must exist before the interval does.  Returns the
    list of ``(ForecastResult, truth_frame)`` pairs for every interval
    that was both forecast and ground-truthed.
    """
    flows = scenario.flows
    pending = {}

    def forecast_frontier():
        index = runtime.server.cache.next_index
        if index and index not in pending and index < len(flows):
            pending[index] = runtime.forecast()

    forecast_frontier()
    for tick in scenario.ticks:
        runtime.ingest(tick)
        forecast_frontier()
    runtime.flush()
    return [(pending[i], flows[i]) for i in sorted(pending)
            if i >= scenario.train_end]


def evaluate_results(scenario: StreamScenario, results,
                     recovery_window=16):
    """Segmented accuracy + provenance report for one replay.

    Errors are *normalized* RMSE (RMSE over the segment divided by the
    segment's mean absolute truth) so a level shift does not make the
    post-disruption segment incomparable to the pre segment by scale
    alone.
    """
    def segment(pairs):
        if not pairs:
            return None
        prediction = np.stack([r.flows for r, _ in pairs])
        truth = np.stack([t for _, t in pairs])
        scale = float(np.abs(truth).mean())
        return {
            "ticks": len(pairs),
            "rmse": float(rmse(prediction, truth)),
            "nrmse": float(rmse(prediction, truth) / max(scale, 1e-9)),
        }

    pre = [(r, t) for r, t in results if r.index < scenario.disruption_start]
    post = [(r, t) for r, t in results if r.index >= scenario.disruption_start]
    recovery = post[-recovery_window:] if post else []
    sources = {}
    for r, _ in results:
        sources[r.source] = sources.get(r.source, 0) + 1
    return {
        "scenario": scenario.name,
        "description": scenario.description,
        "ticks_forecast": len(results),
        "pre": segment(pre),
        "post": segment(post),
        "recovery": segment(recovery),
        "sources": sources,
    }
