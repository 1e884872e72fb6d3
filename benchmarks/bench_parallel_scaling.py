"""Data-parallel scaling benchmark: worker-pool throughput + equivalence.

Standalone harness (not a pytest-benchmark file): it measures training
steps/sec across three arms —

- ``single-process`` — the trainer's serial step loop (no pool);
- ``workers-1``      — the parallel engine with one worker, isolating
  the pool's fixed costs (pipes, shared-memory ring, allreduce);
- ``workers-4``      — four workers, the scaling measurement.

and then verifies the engine's core correctness claim on a
deterministic model: the reduced gradient at 4 workers must equal the
single-process batch gradient within float summation tolerance
(1e-6 for float32, 1e-12 for float64).  The equivalence gate is always
enforced — it is the part of the contract that holds on any host.

The *speedup* gate (``--min-speedup``, default 2.5x for workers-4 over
workers-1) is only enforced when the host actually has the cores to
scale onto: on a machine with fewer than 4 CPUs the number is still
measured and recorded, but the gate is skipped with an explicit
``skipped_reason`` in the snapshot instead of failing CI for physics.

Emits a JSON snapshot (default ``BENCH_parallel.json``)::

    PYTHONPATH=src python benchmarks/bench_parallel_scaling.py --mode smoke
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from repro.core import MuseConfig, MUSENet
from repro.core.losses import LossBreakdown
from repro.data import load_dataset, prepare_forecast_data
from repro.nn import Linear, Module
from repro.nn.losses import mse_loss
from repro.optim import Adam, clip_grad_norm
from repro.parallel import ParallelEngine
from repro.tensor import Tensor

ARMS = ("single-process", "workers-1", "workers-4")
BATCH_SIZE = 8  # the paper's training batch size


class LinearForecaster(Module):
    """Deterministic protocol model for the gradient-equivalence gate.

    MUSE-Net samples VAE posteriors from the per-step rng, so its
    gradients are only comparable at a fixed worker count; the
    equivalence claim is exact for models whose loss ignores the rng.
    """

    def __init__(self, data, seed=0):
        super().__init__()
        _n, length, channels, height, width = data.train.closeness.shape
        self.linear = Linear(length * channels * height * width,
                             channels * height * width,
                             rng=np.random.default_rng(seed))

    def training_loss(self, batch, rng=None):
        flat = Tensor(batch.closeness.reshape(batch.closeness.shape[0], -1))
        prediction = self.linear(flat)
        target = Tensor(batch.target.reshape(len(batch), -1))
        reg = mse_loss(prediction, target)
        zero = Tensor(0.0)
        return (LossBreakdown(total=reg, dis=zero, push=zero, pull=zero,
                              reg=reg),
                SimpleNamespace(prediction=prediction))


def build_setup(scale, seed=0):
    """Small MUSE-Net + prepared data for the throughput arms."""
    dataset = load_dataset("nyc-bike", scale=scale)
    data = prepare_forecast_data(dataset, max_train_samples=32,
                                 max_test_samples=12)
    config = MuseConfig.for_data(
        data, rep_channels=8, latent_interactive=16, res_blocks=1,
        plus_channels=2, decoder_hidden=32, seed=seed,
    )
    return MUSENet(config), data


def serial_step(model, optimizer, batch, rng):
    """The trainer's exact single-process step sequence."""
    optimizer.zero_grad()
    breakdown, _ = model.training_loss(batch, rng=rng)
    breakdown.total.backward()
    clip_grad_norm(model.parameters(), 5.0)
    optimizer.step()


def time_single_process(scale, steps):
    model, data = build_setup(scale)
    optimizer = Adam(model.parameters(), lr=1e-3)
    batch = data.train.take(range(BATCH_SIZE))
    rng = np.random.default_rng(0)
    serial_step(model, optimizer, batch, rng)  # warm-up (lazy state)
    times = []
    for _ in range(steps):
        start = perf_counter()
        serial_step(model, optimizer, batch, rng)
        times.append(perf_counter() - start)
    return {"steps_per_sec": 1.0 / statistics.median(times)}


def time_workers(scale, workers, steps):
    """Median steps/sec through the pool, optimizer step included."""
    model, data = build_setup(scale)
    optimizer = Adam(model.parameters(), lr=1e-3)
    parameters = model.parameters()
    rng = np.random.default_rng(0)
    times = []
    with ParallelEngine(model, optimizer, data.train, BATCH_SIZE,
                        workers) as engine:
        epoch = 0
        warmed = False
        while len(times) < steps:
            order = rng.permutation(len(data.train))
            gen = engine.epoch_steps(order, epoch)
            while True:
                start = perf_counter()
                item = next(gen, None)
                if item is None:
                    break
                clip_grad_norm(parameters, 5.0)
                optimizer.step()
                if warmed:
                    times.append(perf_counter() - start)
                warmed = True
                if len(times) >= steps:
                    gen.close()
                    break
            epoch += 1
        telemetry = engine.snapshot()
    return {"steps_per_sec": 1.0 / statistics.median(times),
            "telemetry": telemetry}


def check_equivalence(workers=4):
    """Reduced vs single-process batch gradient, both precisions."""
    results = {}
    dataset = load_dataset("nyc-bike", scale="tiny")
    data = prepare_forecast_data(dataset, max_train_samples=16,
                                 max_test_samples=8)
    n = 13  # uneven shards at every worker count
    for dtype, atol in ((np.float32, 1e-6), (np.float64, 1e-12)):
        model = LinearForecaster(data)
        for param in model.parameters():
            param.data = param.data.astype(dtype)
        train = data.train.astype(dtype)
        optimizer = Adam(model.parameters(), lr=1e-3)

        batch = train.slice(0, n)
        for param in model.parameters():
            param.grad = None
        breakdown, _ = model.training_loss(batch)
        breakdown.total.backward()
        serial = [param.grad.copy() for param in model.parameters()]
        for param in model.parameters():
            param.grad = None

        with ParallelEngine(model, optimizer, train, n, workers) as engine:
            gen = engine.epoch_steps(np.arange(n), epoch=0)
            next(gen)
            reduced = [param.grad.copy() for param in model.parameters()]
            gen.close()

        diff = max(float(np.abs(r - s).max())
                   for r, s in zip(reduced, serial))
        results[np.dtype(dtype).name] = {
            "max_abs_diff": diff, "atol": atol, "pass": diff <= atol}
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("smoke", "full"), default="full",
                        help="smoke: tiny data, few steps; for CI")
    parser.add_argument("--steps", type=int, default=None,
                        help="timed steps per arm (overrides --mode default)")
    parser.add_argument("--out", default="BENCH_parallel.json",
                        help="where to write the JSON snapshot")
    parser.add_argument("--min-speedup", type=float, default=2.5,
                        help="required workers-4 over workers-1 steps/sec "
                             "multiple (enforced only on hosts with >= 4 "
                             "CPUs)")
    parser.add_argument("--max-one-worker-overhead-pct", type=float,
                        default=None,
                        help="fail when the workers-1 arm is more than this "
                             "percentage slower than single-process "
                             "(unset: record only — wall-clock on shared CI "
                             "boxes is too noisy to gate by default)")
    args = parser.parse_args(argv)
    smoke = args.mode == "smoke"
    steps = args.steps if args.steps is not None else (3 if smoke else 12)
    scale = "tiny" if smoke else "small"
    cpu_count = os.cpu_count() or 1

    results = {
        "single-process": time_single_process(scale, steps),
        "workers-1": time_workers(scale, 1, steps),
        "workers-4": time_workers(scale, 4, steps),
    }
    equivalence = check_equivalence(workers=4)

    speedup = (results["workers-4"]["steps_per_sec"]
               / results["workers-1"]["steps_per_sec"])
    one_worker_overhead_pct = 100.0 * (
        results["single-process"]["steps_per_sec"]
        / results["workers-1"]["steps_per_sec"] - 1.0)
    speedup_enforced = cpu_count >= 4
    gates = {
        "equivalence": {"enforced": True,
                        "pass": all(r["pass"] for r in equivalence.values())},
        "speedup": {
            "required": args.min_speedup,
            "actual": speedup,
            "enforced": speedup_enforced,
            "skipped_reason": None if speedup_enforced else
            f"requires >= 4 CPUs to scale onto; host has {cpu_count}",
        },
    }

    snapshot = {
        "bench": "parallel_scaling",
        "mode": args.mode,
        "steps_timed": steps,
        "scale": scale,
        "cpu_count": cpu_count,
        "batch_size": BATCH_SIZE,
        "arms": results,
        "speedup_workers4_vs_workers1": speedup,
        "one_worker_overhead_pct": one_worker_overhead_pct,
        "equivalence": equivalence,
        "gates": gates,
    }
    with open(args.out, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)

    for arm in ARMS:
        print(f"{arm:15s} {results[arm]['steps_per_sec']:7.2f} steps/s")
    print(f"speedup (workers-4 vs workers-1): {speedup:.2f}x "
          f"on {cpu_count} CPU(s); "
          f"workers-1 overhead vs single-process: "
          f"{one_worker_overhead_pct:+.1f}%")
    for name, r in equivalence.items():
        print(f"equivalence[{name}]: max |diff| {r['max_abs_diff']:.3g} "
              f"(atol {r['atol']:g}) {'OK' if r['pass'] else 'FAIL'}")
    print(f"wrote {args.out}")

    failed = False
    if not gates["equivalence"]["pass"]:
        print("FAIL: reduced gradient does not match the single-process "
              "batch gradient", file=sys.stderr)
        failed = True
    if speedup_enforced and speedup < args.min_speedup:
        print(f"FAIL: workers-4 speedup {speedup:.2f}x below required "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        failed = True
    elif not speedup_enforced:
        print(f"speedup gate skipped: {gates['speedup']['skipped_reason']}")
    if (args.max_one_worker_overhead_pct is not None
            and one_worker_overhead_pct > args.max_one_worker_overhead_pct):
        print(f"FAIL: workers-1 overhead {one_worker_overhead_pct:.1f}% "
              f"above allowed {args.max_one_worker_overhead_pct:.1f}%",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
