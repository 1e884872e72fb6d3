"""Training-throughput benchmark: precision policy + in-place optimizers.

Standalone harness (not a pytest-benchmark file): it measures MUSE-Net
training steps/sec and peak tape bytes across four arms —

- ``float64-baseline`` — float64 policy with :class:`ReferenceAdam`,
  the seed repo's allocating textbook kernel (the pre-PR hot path);
- ``float32``          — float32 policy, still the allocating kernel
  (isolates what halving element width buys);
- ``float32-inplace``  — float32 policy with the in-place
  :class:`~repro.optim.Adam` (the eager optimized path);
- ``compiled``         — float32 + in-place Adam stepping through
  :class:`repro.compile.StepCompiler`: the graph is recorded once and
  every timed step replays a fused in-place kernel schedule over the
  retained buffers (zero forward allocations).

Each arm builds its model/data under a scoped
:func:`repro.tensor.default_dtype` policy, times steps unprofiled
(median), then re-runs a profiled 2-step window with the trainer's real
loss-tensor lifetime to read peak tape bytes and the optimizer's
allocation counters.

On top of the three precision arms, a *guarded* measurement re-times
the optimized path with the fault-tolerance machinery on — the
divergence sentinel checking every step, plus an atomic checksummed
checkpoint amortized at an every-``CHECKPOINT_EVERY_STEPS``-steps
cadence — and reports the per-step overhead percentage
(``sentinel_overhead_pct``), which docs/robustness.md bounds at 3%.

Emits a JSON snapshot (default ``BENCH_throughput.json``)::

    PYTHONPATH=src python benchmarks/bench_train_throughput.py --smoke

``--min-speedup X`` makes the exit code a CI gate: nonzero unless
``float32-inplace`` is at least ``X`` times the baseline's steps/sec.
``--max-overhead-pct Y`` additionally fails the run when the guarded
path's per-step overhead exceeds ``Y`` percent.

The compiled arm carries two gates of its own:

- **bit-equivalence (always on)** — two identical seed-0 setups run
  the same steps eagerly and compiled; every per-step (loss, reg) pair,
  every final parameter, and every final gradient must match *exactly*
  (``atol=0``), or the bench exits nonzero;
- ``--min-compiled-speedup X`` — compiled steps/sec must reach ``X``
  times the eager ``float32-inplace`` arm.  On single-CPU hosts this
  gate self-disables (timings there are dominated by scheduler noise)
  and the snapshot records the reason instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
from time import perf_counter

import numpy as np

from repro.compile import StepCompiler
from repro.core import MuseConfig, MUSENet
from repro.data import load_dataset, prepare_forecast_data
from repro.optim import Adam, ReferenceAdam, clip_grad_norm
from repro.profiling import OpProfiler, profile
from repro.tensor import default_dtype
from repro.training.checkpoint import CheckpointManager
from repro.training.sentinel import DivergenceSentinel

ARMS = ("float64-baseline", "float32", "float32-inplace")

#: Warm calls before timing the compiled arm: plan build (eager),
#: shadow validation (eager), and one trusted replay.
COMPILED_WARMUP_STEPS = 3

# Amortization cadence for the guarded arm's checkpoint cost: one
# atomic save per this many steps.  A paper-profile epoch is several
# hundred optimizer steps, and periodic checkpointing defaults to an
# every-epoch cadence, so 100 steps/save is the conservative end of
# real long-run usage (short ci runs barely checkpoint at all).
CHECKPOINT_EVERY_STEPS = 100


def arm_spec(arm):
    """Map an arm name to its (numpy dtype, optimizer class)."""
    return {
        "float64-baseline": (np.float64, ReferenceAdam),
        "float32": (np.float32, ReferenceAdam),
        "float32-inplace": (np.float32, Adam),
    }[arm]


def build_setup(dtype, optimizer_cls, seed=0):
    """Small-scale dataset + matched MUSE-Net under a dtype policy.

    Uses the "paper" profile's model geometry on the small dataset
    scale: at tiny scale steps are python-overhead-bound and precision
    barely moves the needle; at small scale the numpy kernels dominate
    and the measurement reflects real training runs.
    """
    with default_dtype(dtype):
        dataset = load_dataset("nyc-bike", scale="small")
        data = prepare_forecast_data(dataset, max_train_samples=32,
                                     max_test_samples=12)
        config = MuseConfig.for_data(
            data, rep_channels=16, latent_interactive=32, res_blocks=2,
            plus_channels=4, decoder_hidden=64, seed=seed,
        )
        model = MUSENet(config)
    optimizer = optimizer_cls(model.parameters(), lr=1e-3)
    batch = data.train.take(range(8))  # paper batch size
    return model, optimizer, batch


def training_step(model, optimizer, batch, rng):
    """One full trainer-equivalent step; returns the loss tensor."""
    optimizer.zero_grad()
    breakdown, _ = model.training_loss(batch, rng=rng)
    breakdown.total.backward()
    clip_grad_norm(model.parameters(), 5.0)
    optimizer.step()
    return breakdown.total


def time_arm(arm, steps):
    """Median steps/sec for one arm, unprofiled, under its dtype policy."""
    dtype, optimizer_cls = arm_spec(arm)
    model, optimizer, batch = build_setup(dtype, optimizer_cls)
    rng = np.random.default_rng(0)
    with default_dtype(dtype):
        training_step(model, optimizer, batch, rng)  # warm-up (lazy state)
        times = []
        for _ in range(steps):
            start = perf_counter()
            training_step(model, optimizer, batch, rng)
            times.append(perf_counter() - start)
    return 1.0 / statistics.median(times)


def compiled_step(compiler, parameters, optimizer, batch):
    """One trainer-equivalent step through the StepCompiler."""
    loss, reg = compiler.step(batch)
    clip_grad_norm(parameters, 5.0)
    optimizer.step()
    return loss, reg


def time_compiled(steps):
    """Median steps/sec for the compiled arm, plus its plan report.

    The :data:`COMPILED_WARMUP_STEPS` warm calls (plan build, shadow
    validation, first trusted replay) run before the timer starts —
    they are one-time costs amortized over a training run, and the
    snapshot reports the build time separately (``build_s`` in the
    compiler's report).  The timed steps run unprofiled, as
    :func:`time_arm` times the eager arms; the forward allocations are
    read in two profiled windows of their own, the warmup and two steps
    after the timed ones.
    """
    model, optimizer, batch = build_setup(np.float32, Adam)
    parameters = model.parameters()
    rng = np.random.default_rng(0)
    warmup, after = OpProfiler(), OpProfiler()
    with default_dtype(np.float32):
        compiler = StepCompiler(model, optimizer, rng)
        with profile(warmup):
            for _ in range(COMPILED_WARMUP_STEPS):
                compiled_step(compiler, parameters, optimizer, batch)
        times = []
        for _ in range(steps):
            start = perf_counter()
            compiled_step(compiler, parameters, optimizer, batch)
            times.append(perf_counter() - start)
        report = compiler.report()
        with profile(after):
            for _ in range(2):
                compiled_step(compiler, parameters, optimizer, batch)
    return {
        "steps_per_sec": 1.0 / statistics.median(times),
        # Forward-pass bytes allocated by the eager build/shadow warmup
        # alone; and per step once the plan replays, whose contract is
        # zero.
        "forward_alloc_bytes_with_warmup": int(warmup.forward_alloc_bytes),
        "forward_alloc_bytes_per_step_after_warmup":
            int(after.forward_alloc_bytes) // 2,
        "compile": report,
    }


def check_compiled_equivalence(steps):
    """Bit-equivalence gate: eager vs compiled runs must match exactly.

    Two identical seed-0 setups take the same ``steps`` optimizer steps
    — one eagerly, one through the StepCompiler (build, shadow, then
    trusted replays).  Per-step losses, final parameters, and final
    gradients are compared at ``atol=0``.  Returns a JSON-able verdict.
    """
    steps = max(steps, COMPILED_WARMUP_STEPS + 1)  # ensure replays run

    def run(compiled):
        model, optimizer, batch = build_setup(np.float32, Adam)
        parameters = model.parameters()
        rng = np.random.default_rng(0)
        losses = []
        with default_dtype(np.float32):
            compiler = (StepCompiler(model, optimizer, rng)
                        if compiled else None)
            for _ in range(steps):
                if compiler is not None:
                    losses.append(compiled_step(compiler, parameters,
                                                optimizer, batch))
                else:
                    loss = training_step(model, optimizer, batch, rng)
                    losses.append((loss.item(), None))
        params = [p.data.copy() for p in parameters]
        grads = [None if p.grad is None else p.grad.copy()
                 for p in parameters]
        report = compiler.report() if compiler is not None else None
        return losses, params, grads, report

    eager_losses, eager_params, eager_grads, _ = run(compiled=False)
    comp_losses, comp_params, comp_grads, report = run(compiled=True)
    losses_equal = all(a[0] == b[0] for a, b in
                       zip(eager_losses, comp_losses))
    params_equal = all(np.array_equal(a, b, equal_nan=True)
                       for a, b in zip(eager_params, comp_params))
    grads_equal = all(
        (a is None and b is None)
        or (a is not None and b is not None
            and np.array_equal(a, b, equal_nan=True))
        for a, b in zip(eager_grads, comp_grads))
    return {
        "steps": steps,
        "losses_equal": losses_equal,
        "params_equal": params_equal,
        "grads_equal": grads_equal,
        "compiled_steps_replayed": report["compiled_steps"],
        "ok": bool(losses_equal and params_equal and grads_equal
                   and report["compiled_steps"] > 0),
    }


def time_guarded(steps):
    """Overhead of the fault-tolerant path on the optimized arm.

    Interleaves plain and guarded steps on one model so machine-load
    drift hits both sides equally: each iteration times a plain
    float32-inplace step, then the trainer's exact guarded sequence
    (sentinel scan before the update, its grad norm reused by the
    clip).  An atomic checksummed checkpoint save is measured
    separately and amortized at the :data:`CHECKPOINT_EVERY_STEPS`
    cadence.  Returns a dict with the guarded steps/sec, the paired
    overhead percentage, and the ingredients.
    """
    dtype, optimizer_cls = arm_spec("float32-inplace")
    model, optimizer, batch = build_setup(dtype, optimizer_cls)
    sentinel = DivergenceSentinel(policy="raise")
    parameters = model.parameters()
    rng = np.random.default_rng(0)
    with default_dtype(dtype):
        training_step(model, optimizer, batch, rng)  # warm-up (lazy state)
        plain_times, guarded_times = [], []
        for step in range(steps):
            start = perf_counter()
            training_step(model, optimizer, batch, rng)
            plain_times.append(perf_counter() - start)

            start = perf_counter()
            optimizer.zero_grad()
            breakdown, _ = model.training_loss(batch, rng=rng)
            breakdown.total.backward()
            sentinel.check(breakdown.total.item(), parameters, step, 0)
            clip_grad_norm(parameters, 5.0, norm=sentinel.last_norm)
            optimizer.step()
            guarded_times.append(perf_counter() - start)
    with tempfile.TemporaryDirectory() as tmp:
        manager = CheckpointManager(tmp, keep_last=2)
        manager.save(model, optimizer, epoch=0)  # warm-up (dir, page cache)
        save_times = []
        for epoch in range(1, 6):  # rotation included: the real cadence cost
            start = perf_counter()
            manager.save(model, optimizer, epoch=epoch)
            save_times.append(perf_counter() - start)
        save_seconds = statistics.median(save_times)
    plain_step = statistics.median(plain_times)
    guarded_step = (statistics.median(guarded_times)
                    + save_seconds / CHECKPOINT_EVERY_STEPS)
    return {
        "steps_per_sec": 1.0 / guarded_step,
        "overhead_pct": 100.0 * (guarded_step / plain_step - 1.0),
        "checkpoint_save_seconds": save_seconds,
        "checkpoint_every_steps": CHECKPOINT_EVERY_STEPS,
    }


def measure_arm(arm):
    """Peak tape bytes + optimizer allocation counters over 2 steps.

    Step 1's loss tensor stays referenced through step 2's forward (the
    trainer's actual variable lifetime), so the peak reflects the real
    overlap of consecutive graphs.
    """
    dtype, optimizer_cls = arm_spec(arm)
    model, optimizer, batch = build_setup(dtype, optimizer_cls)
    rng = np.random.default_rng(0)
    prof = OpProfiler()
    with default_dtype(dtype):
        training_step(model, optimizer, batch, rng)  # warm-up (lazy state)
        with profile(prof):
            held = training_step(model, optimizer, batch, rng)
            held = training_step(model, optimizer, batch, rng)
        del held
    return {
        "peak_tape_bytes": int(prof.peak_tape_bytes),
        "optimizer_alloc_bytes": int(prof.optimizer_alloc_bytes),
        "optimizer_alloc_bytes_per_step": int(optimizer.last_step_alloc_bytes),
        "grad_alloc_bytes": int(prof.grad_alloc_bytes),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="few steps; for CI smoke runs")
    parser.add_argument("--steps", type=int, default=None,
                        help="timed steps per arm (overrides --smoke)")
    parser.add_argument("--out", default="BENCH_throughput.json",
                        help="where to write the JSON snapshot")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="fail (exit 1) unless float32-inplace reaches "
                             "this steps/sec multiple of the baseline")
    parser.add_argument("--max-overhead-pct", type=float, default=None,
                        help="fail (exit 1) when the sentinel + periodic-"
                             "checkpoint overhead exceeds this percentage")
    parser.add_argument("--min-compiled-speedup", type=float, default=None,
                        help="fail (exit 1) unless the compiled arm reaches "
                             "this steps/sec multiple of float32-inplace "
                             "(self-disables on single-CPU hosts)")
    args = parser.parse_args(argv)
    steps = args.steps if args.steps is not None else (3 if args.smoke else 15)

    results = {}
    for arm in ARMS:
        results[arm] = {"steps_per_sec": time_arm(arm, steps)}
        results[arm].update(measure_arm(arm))
    results["compiled"] = time_compiled(steps)

    baseline = results["float64-baseline"]
    optimized = results["float32-inplace"]
    guarded = time_guarded(steps)
    equivalence = check_compiled_equivalence(steps)
    speedup = optimized["steps_per_sec"] / baseline["steps_per_sec"]
    compiled_speedup = (results["compiled"]["steps_per_sec"]
                        / optimized["steps_per_sec"])
    tape_reduction_pct = 100.0 * (
        1.0 - optimized["peak_tape_bytes"] / baseline["peak_tape_bytes"])
    overhead_pct = guarded["overhead_pct"]

    cpu_count = os.cpu_count() or 1
    compiled_gate = {"enabled": args.min_compiled_speedup is not None,
                     "min_speedup": args.min_compiled_speedup}
    if compiled_gate["enabled"] and cpu_count <= 1:
        compiled_gate["enabled"] = False
        compiled_gate["reason"] = (
            f"host has {cpu_count} CPU: step timings are dominated by "
            "scheduler noise, so the speedup gate is informational only "
            "(the bit-equivalence gate still applies)")

    snapshot = {
        "bench": "train_throughput",
        "mode": "smoke" if args.smoke else "full",
        "steps_timed": steps,
        "arms": results,
        "guarded": guarded,
        "compiled_equivalence": equivalence,
        "compiled_speedup_gate": compiled_gate,
        "speedup_float32_inplace_vs_float64": speedup,
        "speedup_compiled_vs_float32_inplace": compiled_speedup,
        "peak_tape_reduction_pct": tape_reduction_pct,
        "sentinel_overhead_pct": overhead_pct,
    }
    with open(args.out, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)

    for arm in ARMS:
        r = results[arm]
        print(f"{arm:18s} {r['steps_per_sec']:7.2f} steps/s  "
              f"tape peak {r['peak_tape_bytes'] / 2**20:7.2f} MiB  "
              f"opt alloc/step {r['optimizer_alloc_bytes_per_step'] / 2**10:8.1f} KiB")
    comp = results["compiled"]
    print(f"{'compiled':18s} {comp['steps_per_sec']:7.2f} steps/s  "
          f"arena {comp['compile']['arena_bytes'] / 2**20:7.2f} MiB  "
          f"fwd alloc/step {comp['forward_alloc_bytes_per_step_after_warmup']} B  "
          f"plan built in {comp['compile']['build_s'] * 1e3:.1f} ms")
    print(f"speedup (float32-inplace vs float64-baseline): {speedup:.2f}x, "
          f"peak tape {tape_reduction_pct:.1f}% lower")
    print(f"speedup (compiled vs float32-inplace): {compiled_speedup:.2f}x")
    print(f"compiled bit-equivalence vs eager over {equivalence['steps']} "
          f"steps ({equivalence['compiled_steps_replayed']} replayed): "
          f"{'OK' if equivalence['ok'] else 'MISMATCH'}")
    print(f"guarded (sentinel + ckpt/{guarded['checkpoint_every_steps']} steps): "
          f"{guarded['steps_per_sec']:.2f} steps/s, "
          f"overhead {overhead_pct:.2f}% "
          f"(one save: {guarded['checkpoint_save_seconds'] * 1e3:.1f} ms)")
    print(f"wrote {args.out}")

    failed = False
    if speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x below required "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        failed = True
    if args.max_overhead_pct is not None and overhead_pct > args.max_overhead_pct:
        print(f"FAIL: fault-tolerance overhead {overhead_pct:.2f}% above "
              f"allowed {args.max_overhead_pct:.2f}%", file=sys.stderr)
        failed = True
    if not equivalence["ok"]:
        print("FAIL: compiled arm diverged from eager (bit-equivalence "
              "gate, atol 0) — see compiled_equivalence in the snapshot",
              file=sys.stderr)
        failed = True
    if compiled_gate["enabled"] and compiled_speedup < args.min_compiled_speedup:
        print(f"FAIL: compiled speedup {compiled_speedup:.2f}x below "
              f"required {args.min_compiled_speedup:.2f}x", file=sys.stderr)
        failed = True
    elif not compiled_gate["enabled"] and compiled_gate.get("reason"):
        print(f"compiled speedup gate disabled: {compiled_gate['reason']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
