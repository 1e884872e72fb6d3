"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {wire,train,stream} --seed N \\
        --seconds S --trace {0,1}

Runs from the root of a source checkout: the program is imported from
``src/`` next to this directory, never from an installed copy.  The
report lines name every metric with its unit and sample count; the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the run is split into an
untraced and a traced half, the metrics are the per-layer metrics of
the traced half, and the report also shows each level's residual and
the tracing overhead (traced minus untraced end-to-end figures).
Exit code 0 means every correctness check passed.

BLAS is pinned to one thread here, before NumPy loads, and every
process the benchmark starts inherits that setting.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import signal
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("wire", "train", "stream")

#: (metric, unit) of the end-to-end metrics, as in BENCHMARK.json.
E2E = [("setup_s", "s"), ("peak_rss_mib", "MiB"), ("op_p50_ms", "ms"),
       ("op_rate_per_s", "1/s"), ("heavy_op_ms", "ms")]


class Context:
    def __init__(self, args, run_dir):
        self.root = ROOT
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.run_dir = run_dir
        self.outcome = Outcome()


class Outcome:
    """What a workload hands back to the report."""

    def __init__(self):
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.e2e = {}          # metric -> (value, samples)
        self.traced_e2e = {}   # metric -> value, traced half
        self.names = {}        # metric -> this workload's name for it
        self.per_layer = {}    # metric -> value
        self.report = []


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program():
    """Put ``src/`` first on the path and import the program from it."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"error: no program source at {SRC}/repro; run "
                         "from the root of a source checkout")
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path[:0] = [ROOT, SRC]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: repro imported from {repro.__file__}, "
                         f"not from {SRC}")


def _finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def _terminate(signum, frame):
    # Unwind normally, so a started server is stopped on the way out.
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    _import_program()
    from perfbench import stats

    run_dir = os.path.join(ROOT, ".perfbench", str(os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    module = importlib.import_module(f"perfbench.workload_{args.workload}")
    cpu_before = stats.cpu_times()
    try:
        outcome = module.run(Context(args, run_dir))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass

    host = stats.host_settings()
    print(f"host: {host['cpu_count']} CPUs, Python {host['python']}, NumPy "
          f"{host['numpy']}, {host['blas']}, BLAS threads "
          f"{host['blas_threads']}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace}")
    print("host steal over the run: "
          f"{100 * stats.steal_share(cpu_before, stats.cpu_times()):.1f}% of "
          "the CPU time wanted went to other tenants (a diagnostic: the "
          "timings slow down with it)")
    for line in outcome.report:
        print(line)
    units = dict(E2E)
    for name, unit in E2E:
        value, samples = outcome.e2e[name]
        alias = outcome.names.get(name)
        label = f"{name} ({alias})" if alias else name
        print(f"metric {label}: {value:.6g} {unit} (n={samples})")
    if args.trace:
        for name, traced in outcome.traced_e2e.items():
            base = outcome.e2e[name][0]
            print(f"tracing overhead {name}: untraced {base:.6g} "
                  f"{units[name]}, traced {traced:.6g} {units[name]} "
                  f"({100 * (traced - base) / base:+.1f}%)")
        from perfbench.layers import PER_LAYER

        # A layer this workload never called reports 0.
        metrics = {name: {"value": outcome.per_layer.get(name, 0.0),
                          "unit": unit} for name, unit, _better in PER_LAYER}
        for name, entry in metrics.items():
            print(f"layer {name}: {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = {name: {"value": outcome.e2e[name][0], "unit": unit}
                   for name, unit in E2E}
    correct = outcome.correct
    for name, entry in metrics.items():
        if not _finite(entry["value"]):
            print(f"error: metric {name} was not measured", file=sys.stderr)
            entry["value"] = 0.0
            correct = False
    if outcome.failed:
        print(f"error: {outcome.failed} of {outcome.attempted} operations "
              "failed", file=sys.stderr)
    if not outcome.correct:
        print("error: a correctness check failed", file=sys.stderr)
    print(f"failed_ratio: {outcome.failed / max(outcome.attempted, 1):.6g} "
          f"ratio (n={outcome.attempted} attempted, {outcome.failed} "
          "failed)")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
