"""Stream robustness benchmark: clean-stream identity + drift recovery.

Standalone harness (not a pytest-benchmark file): it replays the
shared disruption scenarios of :mod:`repro.stream.simulate` through
:class:`repro.stream.StreamRuntime` and gates the two halves of the
streaming contract:

- **Clean-stream correctness (always enforced)** — on an in-order,
  complete, uncorrupted stream every live forecast must be
  *bit-identical* (atol 0) to the offline ``build_samples`` ->
  ``Trainer.predict_scaled`` path on the same interval.  Both arms run
  the same code on the same float64 raw frames, so the allowed
  difference is exactly zero — any drift here means the rolling
  windows and the offline windows disagree.
- **Adaptation recovery (always enforced)** — on the ``level_shift``
  scenario (demand steps to 1.6x mid-stream) the adaptive runtime must
  recover: its recovery-segment normalized RMSE must come back to
  within ``--max-recovery-ratio`` (default 1.10) of its pre-disruption
  normalized RMSE, while the frozen arm — identical weights, no
  adaptation — must remain visibly broken (ratio >=
  ``--min-frozen-ratio``, default 1.25).  Accuracy is not wall-clock,
  so these gates hold on any host.
- **Retrain budget (hardware-gated)** — each warm retrain must finish
  inside ``--max-retrain-s`` wall-clock seconds.  Timing is physics:
  on a single-CPU host the number is still measured and recorded, but
  the gate is skipped with an explicit ``skipped_reason`` (mirroring
  ``BENCH_serve.json``).

``--mode full`` additionally replays the fault-injection scenarios
(late / dropout / corrupt / outage) and records their telemetry; any
crash there fails the run (zero-crash contract), but their numbers are
descriptive, not gated.

Emits a JSON snapshot (default ``BENCH_stream.json``)::

    PYTHONPATH=src python benchmarks/bench_stream_robustness.py --mode smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from repro.data.windows import build_samples
from repro.stream import simulate as sim
from repro.training import Trainer

FAULT_SCENARIOS = ("late", "dropout", "corrupt", "outage")


def run_clean(seed=0, epochs=8):
    """Clean-stream replay vs the offline pipeline; atol is zero."""
    scenario = sim.make_scenario("clean", seed=seed)
    state = sim.train_offline(scenario, epochs=epochs, seed=seed)
    with tempfile.TemporaryDirectory(prefix="bench-stream-") as ckpt:
        runtime = sim.build_runtime(scenario, state, adaptive=True,
                                    checkpoint_dir=ckpt, seed=seed)
        with runtime:
            results = sim.run_scenario(scenario, runtime)
            telemetry = runtime.snapshot()

    reference = sim.make_model(scenario.grid, scenario.periodicity, seed=seed)
    reference.load_state_dict(state)
    trainer = Trainer(reference)
    scaled = sim.fit_scaler(scenario).transform(scenario.flows)
    scaler = sim.fit_scaler(scenario)
    max_err = 0.0
    model_ticks = 0
    for result, _ in results:
        if result.source != "model":
            continue
        model_ticks += 1
        batch = build_samples(scaled, scenario.periodicity, [result.index])
        offline = scaler.inverse_transform(
            np.asarray(trainer.predict_scaled(batch))[0])
        max_err = max(max_err, float(np.abs(result.flows - offline).max()))
    return {
        "ticks": len(results),
        "model_ticks": model_ticks,
        "retrains": telemetry["retrains"],
        "max_abs_error_vs_offline": max_err,
        "atol": 0.0,
        "pass": (max_err == 0.0 and model_ticks == len(results)
                 and len(results) > 0),
    }


def run_level_shift(seed=0, epochs=8):
    """Adaptive vs frozen arms on the level-shift scenario.

    Both arms re-seed fresh models from one offline ``state_dict``, so
    the only difference between them is the adaptation machinery.
    """
    scenario = sim.make_scenario("level_shift", seed=seed)
    state = sim.train_offline(scenario, epochs=epochs, seed=seed)
    arms = {}
    for arm, adaptive in (("adaptive", True), ("frozen", False)):
        with tempfile.TemporaryDirectory(prefix="bench-stream-") as ckpt:
            runtime = sim.build_runtime(scenario, state, adaptive=adaptive,
                                        checkpoint_dir=ckpt, seed=seed)
            with runtime:
                results = sim.run_scenario(scenario, runtime)
                telemetry = runtime.snapshot()
        report = sim.evaluate_results(scenario, results)
        pre, recovery = report["pre"], report["recovery"]
        ratio = (recovery["nrmse"] / pre["nrmse"]
                 if pre and recovery else float("nan"))
        arms[arm] = {
            "pre_nrmse": pre["nrmse"] if pre else None,
            "post_nrmse": report["post"]["nrmse"] if report["post"] else None,
            "recovery_nrmse": recovery["nrmse"] if recovery else None,
            "recovery_ratio": ratio,
            "sources": report["sources"],
            "drifts": telemetry["drift"]["drifts"],
            "retrains": telemetry["retrains"],
            "retrain_failures": len(telemetry["retrain_failures"]),
            "retrain_s_total": telemetry["retrain_s"],
            "fallbacks": telemetry["fallbacks"],
        }
    return arms


def run_fault(name, seed=0, epochs=8):
    """Replay one fault scenario; any exception fails the bench."""
    scenario = sim.make_scenario(name, seed=seed)
    state = sim.train_offline(scenario, epochs=epochs, seed=seed)
    with tempfile.TemporaryDirectory(prefix="bench-stream-") as ckpt:
        runtime = sim.build_runtime(scenario, state, adaptive=True,
                                    checkpoint_dir=ckpt, seed=seed)
        with runtime:
            results = sim.run_scenario(scenario, runtime)
            telemetry = runtime.snapshot()
    report = sim.evaluate_results(scenario, results)
    return {
        "description": scenario.description,
        "ticks_forecast": len(results),
        "sources": report["sources"],
        "ingest": telemetry["ingest"]["counts"],
        "masked_cells": telemetry["masked_cells"],
        "retrains": telemetry["retrains"],
        "fallbacks": telemetry["fallbacks"],
        "degraded_at_end": telemetry["degraded"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("smoke", "full"), default="full",
                        help="smoke: gated scenarios only; for CI")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=8,
                        help="offline pre-training epochs per scenario")
    parser.add_argument("--out", default="BENCH_stream.json",
                        help="where to write the JSON snapshot")
    parser.add_argument("--max-recovery-ratio", type=float, default=1.10,
                        help="adaptive arm: recovery nrmse / pre nrmse "
                             "must be <= this (default: 1.10)")
    parser.add_argument("--min-frozen-ratio", type=float, default=1.25,
                        help="frozen arm: recovery nrmse / pre nrmse "
                             "must be >= this (default: 1.25)")
    parser.add_argument("--max-retrain-s", type=float, default=60.0,
                        help="wall-clock budget per warm retrain "
                             "(enforced only on hosts with >= 2 CPUs)")
    args = parser.parse_args(argv)
    cpu_count = os.cpu_count() or 1

    clean = run_clean(seed=args.seed, epochs=args.epochs)
    shift = run_level_shift(seed=args.seed, epochs=args.epochs)

    faults = {}
    if args.mode == "full":
        for name in FAULT_SCENARIOS:
            faults[name] = run_fault(name, seed=args.seed, epochs=args.epochs)

    adaptive, frozen = shift["adaptive"], shift["frozen"]
    retrains = max(1, adaptive["retrains"])
    per_retrain_s = adaptive["retrain_s_total"] / retrains
    timing_enforced = cpu_count >= 2
    gates = {
        "clean_identity": {
            "enforced": True,
            "max_abs_error": clean["max_abs_error_vs_offline"],
            "atol": 0.0,
            "pass": clean["pass"],
        },
        "recovery": {
            "enforced": True,
            "adaptive_ratio": adaptive["recovery_ratio"],
            "max_recovery_ratio": args.max_recovery_ratio,
            "frozen_ratio": frozen["recovery_ratio"],
            "min_frozen_ratio": args.min_frozen_ratio,
            "pass": (adaptive["recovery_ratio"] <= args.max_recovery_ratio
                     and frozen["recovery_ratio"] >= args.min_frozen_ratio
                     and adaptive["retrains"] >= 1),
        },
        "retrain_budget": {
            "required_s": args.max_retrain_s,
            "actual_s_per_retrain": per_retrain_s,
            "enforced": timing_enforced,
            "skipped_reason": None if timing_enforced else
            "wall-clock retrain budget needs >= 2 CPUs (the fit contends "
            f"with everything else on {cpu_count} CPU)",
        },
    }

    snapshot = {
        "bench": "stream_robustness",
        "mode": args.mode,
        "seed": args.seed,
        "cpu_count": cpu_count,
        "epochs": args.epochs,
        "clean": clean,
        "level_shift": shift,
        "faults": faults,
        "gates": gates,
    }
    with open(args.out, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)

    print(f"clean identity: {clean['model_ticks']}/{clean['ticks']} model "
          f"ticks, max|err| {clean['max_abs_error_vs_offline']:.3g} "
          f"{'OK' if clean['pass'] else 'FAIL'}")
    for arm in ("adaptive", "frozen"):
        a = shift[arm]
        print(f"level_shift[{arm}]: pre {a['pre_nrmse']:.4f}  recovery "
              f"{a['recovery_nrmse']:.4f}  ratio {a['recovery_ratio']:.3f}  "
              f"retrains {a['retrains']}")
    for name, fault in faults.items():
        print(f"fault[{name}]: {fault['ticks_forecast']} ticks, sources "
              f"{fault['sources']}, ingest {fault['ingest']}")
    print(f"wrote {args.out}")

    failed = False
    if not gates["clean_identity"]["pass"]:
        print("FAIL: clean-stream forecasts diverge from the offline "
              "pipeline (the bit-identity contract)", file=sys.stderr)
        failed = True
    if not gates["recovery"]["pass"]:
        print(f"FAIL: recovery gate — adaptive ratio "
              f"{adaptive['recovery_ratio']:.3f} (need <= "
              f"{args.max_recovery_ratio:g}), frozen ratio "
              f"{frozen['recovery_ratio']:.3f} (need >= "
              f"{args.min_frozen_ratio:g}), retrains "
              f"{adaptive['retrains']} (need >= 1)", file=sys.stderr)
        failed = True
    if timing_enforced and per_retrain_s > args.max_retrain_s:
        print(f"FAIL: warm retrain took {per_retrain_s:.1f} s > budget "
              f"{args.max_retrain_s:.1f} s", file=sys.stderr)
        failed = True
    elif not timing_enforced:
        print("retrain budget gate skipped: "
              f"{gates['retrain_budget']['skipped_reason']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
