"""Profiling-overhead and tape-lifecycle benchmark.

Standalone harness (not a pytest-benchmark file): it times one
MUSE-Net training step with and without the op profiler installed, and
measures the tape's peak byte footprint with the default
free-after-backward lifecycle versus ``retain_graph=True`` (the seed
engine's behaviour, where backward closures — and the conv/pool window
views and padded inputs they capture — stay alive until the whole graph
is garbage collected).

Both timing arms run on one model, optimizer and batch, in alternating
blocks of ``BLOCK_STEPS`` steps, so host-speed drift lands in both.
The snapshot reports each arm's median and quartiles per step and the
overhead of the medians.  It gates nothing.

Emits a JSON snapshot (default ``BENCH_profiling.json``) that later
perf PRs can diff against::

    PYTHONPATH=src python benchmarks/bench_profile_overhead.py --smoke

The tape measurement replays the trainer's real variable lifetime: the
step-N loss tensor stays referenced until step N+1's forward completes,
so without lifecycle freeing two full graphs coexist.
"""

from __future__ import annotations

import argparse
import json
import sys
import tracemalloc
from contextlib import nullcontext
from time import perf_counter

import numpy as np

from repro.core import MuseConfig, MUSENet
from repro.data import load_dataset, prepare_forecast_data
from repro.optim import Adam, clip_grad_norm
from repro.profiling import OpProfiler, profile

#: Steps per arm between switches; smoke and full mode time 30 and 200
#: steps per arm.
BLOCK_STEPS = 5
SMOKE_STEPS = 30
FULL_STEPS = 200


def build_setup(seed=0):
    """Tiny dataset + matched MUSE-Net + optimizer, as the tests use."""
    dataset = load_dataset("nyc-bike", scale="tiny")
    data = prepare_forecast_data(dataset, max_train_samples=32, max_test_samples=12)
    config = MuseConfig.for_data(
        data, rep_channels=8, latent_interactive=16, res_blocks=1,
        plus_channels=2, decoder_hidden=32, seed=seed,
    )
    model = MUSENet(config)
    optimizer = Adam(model.parameters(), lr=1e-3)
    batch = data.train.take(range(8))  # paper batch size
    return model, optimizer, batch


def training_step(model, optimizer, batch, rng, retain_graph=False):
    """One full trainer-equivalent step; returns the loss tensor."""
    optimizer.zero_grad()
    breakdown, _ = model.training_loss(batch, rng=rng)
    breakdown.total.backward(retain_graph=retain_graph)
    clip_grad_norm(model.parameters(), 5.0)
    optimizer.step()
    return breakdown.total


def _timed_block(model, optimizer, batch, rng, steps, profiler=None):
    """Wall times of ``steps`` training steps, under ``profiler`` if given."""
    times = []
    with profile(profiler) if profiler is not None else nullcontext():
        for _ in range(steps):
            if profiler is not None:
                profiler.mark()
            start = perf_counter()
            training_step(model, optimizer, batch, rng)
            times.append(perf_counter() - start)
    return times


def time_arms(steps):
    """Per-step wall times of both arms, ``steps`` each, on one setup.

    The arms alternate in blocks of ``BLOCK_STEPS``, and the arm that
    goes first alternates too.  Returns ``{arm: [seconds, ...]}``.
    """
    model, optimizer, batch = build_setup()
    rng = np.random.default_rng(0)
    training_step(model, optimizer, batch, rng)  # warm-up
    profiler = OpProfiler()
    times = {"unprofiled": [], "profiled": []}
    blocks = max(1, -(-steps // BLOCK_STEPS))
    for block in range(blocks):
        arms = ("unprofiled", "profiled")
        for arm in arms if block % 2 == 0 else arms[::-1]:
            size = min(BLOCK_STEPS, steps - len(times[arm]))
            times[arm] += _timed_block(
                model, optimizer, batch, rng, size,
                profiler if arm == "profiled" else None)
    return times


def _summary(times):
    """Median and quartiles of one arm's step times, in seconds."""
    q1, median, q3 = np.percentile(times, [25, 50, 75])
    return {"median_s": float(median), "q1_s": float(q1), "q3_s": float(q3)}


def measure_tape(retain_graph):
    """Peak tape bytes + tracemalloc peak over a 2-step window.

    Step 1's loss is kept alive until step 2's forward finishes — the
    trainer's actual reference lifetime — so without freeing, both
    graphs' closures (and captured buffers) are simultaneously live.
    """
    model, optimizer, batch = build_setup()
    rng = np.random.default_rng(0)
    prof = OpProfiler()
    tracemalloc.start()
    with profile(prof):
        held = training_step(model, optimizer, batch, rng, retain_graph=retain_graph)
        held = training_step(model, optimizer, batch, rng, retain_graph=retain_graph)
    _, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del held
    return prof.peak_tape_bytes, traced_peak


def one_step_profile():
    """Per-op snapshot of a single training step."""
    model, optimizer, batch = build_setup()
    rng = np.random.default_rng(0)
    training_step(model, optimizer, batch, rng)  # warm-up
    with profile() as prof:
        training_step(model, optimizer, batch, rng)
    return prof


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_STEPS} steps per arm; for CI smoke runs")
    parser.add_argument("--steps", type=int, default=None,
                        help="timed steps per arm (overrides --smoke)")
    parser.add_argument("--out", default="BENCH_profiling.json",
                        help="where to write the JSON snapshot")
    args = parser.parse_args(argv)
    steps = args.steps if args.steps is not None else (
        SMOKE_STEPS if args.smoke else FULL_STEPS)

    arms = {arm: _summary(times) for arm, times in time_arms(steps).items()}
    unprofiled = arms["unprofiled"]["median_s"]
    profiled = arms["profiled"]["median_s"]
    overhead_pct = 100.0 * (profiled - unprofiled) / unprofiled

    peak_freed, traced_freed = measure_tape(retain_graph=False)
    peak_retained, traced_retained = measure_tape(retain_graph=True)
    reduction_pct = 100.0 * (1.0 - peak_freed / peak_retained)

    prof = one_step_profile()

    snapshot = {
        "bench": "profiling_overhead",
        "mode": "smoke" if steps <= SMOKE_STEPS else "full",
        "steps_timed": steps,
        "block_steps": BLOCK_STEPS,
        "step_time_unprofiled_s": unprofiled,
        "step_time_profiled_s": profiled,
        "step_time_arms": arms,
        "profiling_overhead_pct": overhead_pct,
        "peak_tape_bytes_freed": int(peak_freed),
        "peak_tape_bytes_retained": int(peak_retained),
        "tape_bytes_reduction_pct": reduction_pct,
        "tracemalloc_peak_freed_bytes": int(traced_freed),
        "tracemalloc_peak_retained_bytes": int(traced_retained),
        "op_profile": prof.snapshot(),
    }
    with open(args.out, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)

    for arm, stats in arms.items():
        print(f"step time {arm}: median {stats['median_s'] * 1e3:.2f} ms "
              f"(quartiles {stats['q1_s'] * 1e3:.2f}-"
              f"{stats['q3_s'] * 1e3:.2f} ms, {steps} steps)")
    print(f"profiling overhead (medians): {overhead_pct:+.1f}%")
    print(f"peak tape bytes over 2-step window: {peak_retained} retained -> "
          f"{peak_freed} freed ({reduction_pct:.1f}% lower)")
    print(f"tracemalloc peaks: {traced_retained} retained -> {traced_freed} freed")
    print(prof.summary())
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
