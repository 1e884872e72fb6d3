#!/usr/bin/env bash
# CI gate: tier-1 tests plus smoke-mode perf benchmarks, so every run
# produces fresh perf snapshots (BENCH_profiling.json,
# BENCH_throughput.json, BENCH_parallel.json, BENCH_serve.json,
# BENCH_stream.json).  The throughput bench
# doubles as a perf regression gate: it fails unless the float32 +
# in-place-optimizer path is faster than the float64 baseline; the
# parallel bench gates the worker pool's gradient-equivalence contract
# (and its 4-worker speedup, on hosts with the cores for it).
#
# Every stage runs even when an earlier one failed: a failing command
# is recorded against its stage, the failed stages are listed at the
# end, and the script then exits non-zero.
#
#   scripts/ci_check.sh            # from anywhere inside the repo
set -uo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

STAGE=""
FAILED=()

stage() {
    STAGE="$1"
    echo "== $STAGE =="
}

# Run one command of the current stage; on failure record the stage
# (once) and carry on.
run() {
    "$@" && return 0
    local status=$?
    echo "ci_check: '$STAGE' failed (exit $status): $*" >&2
    if [ "${#FAILED[@]}" -eq 0 ] || [ "${FAILED[-1]}" != "$STAGE" ]; then
        FAILED+=("$STAGE")
    fi
    return 0
}

stage "static analysis"
# AST lint (dtype-policy, gradcheck-coverage, optimizer-out,
# mutable-default; config in [tool.repro.lint]) and the abstract-
# interpretation model checker over MUSE-Net at paper shapes.  Both
# exit 2 on findings, failing the gate (docs/static_analysis.md).
run python -m repro lint
# Whole-program lock discipline over the threaded/forked stacks:
# lock-order cycles, guarded-field escapes, fork-under-lock
# (config in [tool.repro.lint]; exit 2 on findings).
run python -m repro check-concurrency
run python -m repro check-model MUSE-Net

stage "tier-1 tests"
run python -m pytest -x -q

stage "fault-injection suite"
# Robustness harness: divergence sentinel policies, detect_anomaly op
# attribution, checkpoint corruption/mid-write kills, SIGINT/SIGTERM
# interruption + resume (tests/robustness/).
run python -m pytest tests/robustness -q

stage "profiling-overhead bench (smoke)"
run python benchmarks/bench_profile_overhead.py --smoke --out BENCH_profiling.json

stage "train-throughput bench (smoke)"
# Smoke timings are noisy; the committed BENCH_throughput.json (full
# mode) is where the >=1.5x speedup and <=3% fault-tolerance-overhead
# claims live.  The gates here only require the optimized path to beat
# the baseline and the guarded path to stay within loose bounds.  The
# compiled arm's bit-equivalence gate (replayed steps == eager, atol 0)
# is always on; its >=1.5x speedup gate self-disables on single-CPU
# hosts and records the reason in the snapshot instead.
run python benchmarks/bench_train_throughput.py --smoke --min-speedup 1.1 \
    --max-overhead-pct 10 --min-compiled-speedup 1.5 \
    --out BENCH_throughput.json

stage "data-parallel smoke fit (2 workers)"
# End-to-end worker-pool exercise through the real CLI: forked
# replicas, shared-memory allreduce, sentinel + telemetry, clean drain;
# --profile-ops renders the op summary next to the engine's telemetry.
run python -m repro train MUSE-Net --profile ci --dtype float32 --workers 2 \
    --profile-ops

# Socket session through the real CLI: bind `repro serve MUSE-Net
# --listen` (plus any extra server flags given as arguments) on an
# ephemeral port, discover it via --address-file, run the python client
# read from stdin against that address, and require a clean drain:
# client exit 0, server exit 0 and "drained cleanly" in its log.
listen_session() {
    local dir pid
    dir="$(mktemp -d)"
    python -m repro serve MUSE-Net --listen 127.0.0.1:0 \
        --address-file "$dir/address" --max-wait-ms 0.5 "$@" \
        > "$dir/server.log" 2>&1 &
    pid=$!
    for _ in $(seq 1 240); do
        [ -s "$dir/address" ] && break
        kill -0 "$pid" 2>/dev/null || { cat "$dir/server.log"; return 1; }
        sleep 0.5
    done
    if ! [ -s "$dir/address" ]; then
        echo "server never bound"; cat "$dir/server.log"
        kill "$pid" 2>/dev/null; wait "$pid" 2>/dev/null
        return 1
    fi
    if ! python - "$dir/address"; then
        kill "$pid" 2>/dev/null; wait "$pid" 2>/dev/null
        cat "$dir/server.log"
        return 1
    fi
    wait "$pid" || { echo "server exited non-zero"; cat "$dir/server.log"; return 1; }
    grep -q "drained cleanly" "$dir/server.log" || { cat "$dir/server.log"; return 1; }
    rm -rf "$dir"
}

stage "replica-pool smoke (2 replicas)"
# End-to-end replica pool through the real CLI: forked replicas over
# one shared parameter buffer, sharded rounds, clean teardown.  Exits 1
# if served rows differ from the offline forward by more than 1e-12.
run python -m repro serve MUSE-Net --profile ci --replicas 2 \
    --requests 64 --concurrency 8
# The same gate with the autoscaler on: the CLI builds the AutoScaler
# from --min/--max-replicas, starts its driver thread and joins it on
# close.
run python -m repro serve MUSE-Net --profile ci --replicas 1 \
    --min-replicas 1 --max-replicas 2 --requests 64 --concurrency 8
# That replay ends before the driver's first 1 s tick, so a listening
# session stays up until the autoscaler has taken a policy step.
run listen_session --replicas 1 --min-replicas 1 --max-replicas 2 <<'PYEOF'
import sys
import time

from repro.serve import ForecastClient

address = open(sys.argv[1], encoding="utf-8").read().strip()
with ForecastClient(address, wait_ready_s=10.0) as client:
    deadline = time.monotonic() + 30.0
    while client.stats()["autoscaler"]["observations"] < 1:
        assert time.monotonic() < deadline, "no autoscaler step in 30 s"
        time.sleep(0.2)
    client.shutdown()
print("autoscaler step OK")
PYEOF

# A compiled float32 fit that must have compiled.  The fit exits 0 even
# when every step ran eager (an op with no replay kernel pins its
# signature to eager), so read its compile report: fail on 0 compiled
# steps or on a "recording failed" fallback.
compiled_fit() {
    local log
    log="$(python -m repro train MUSE-Net --profile ci --dtype float32 \
        --compile)" || { echo "$log"; return 1; }
    echo "$log"
    if ! grep -qE '^compile: .*, [1-9][0-9]* compiled / ' <<<"$log"; then
        echo "compiled fit ran no compiled step"
        return 1
    fi
    if grep -q 'recording failed' <<<"$log"; then
        echo "compiled fit fell back to eager: a recording failed"
        return 1
    fi
}

stage "compiled paths smoke"
# Both graph compilers through the real CLI: compiled serving forwards
# (exits 1 if served rows differ from the offline forward by more than
# 1e-12) and a compiled float32 fit, which prints its compile report.
run python -m repro serve MUSE-Net --profile ci --compile --requests 64 \
    --concurrency 8
run compiled_fit

stage "examples smoke"
# The one example that drives profile(), Adam and clip_grad_norm by
# hand rather than through the Trainer (seconds); tests/test_examples.py
# checks that every example imports and runs only the simulation one.
run python examples/profile_training_step.py

stage "parallel-scaling bench (smoke)"
# Always gates gradient equivalence (reduced == single-process batch
# gradient at 4 workers); the 2.5x speedup gate self-disables on hosts
# with < 4 CPUs and records the reason in the snapshot instead.
run python benchmarks/bench_parallel_scaling.py --mode smoke \
    --min-speedup 2.5 --out BENCH_parallel.json

stage "serve-latency bench (smoke)"
# Always gates serving correctness (served rows == offline
# predict_scaled at 1e-6/1e-12, under a batching-hostile request mix),
# single-flight dedup (32 concurrent same-tick clients -> exactly one
# model forward, all responses bit-identical to the uncached offline
# forward at atol 0), and socket parity (wire-served rows == in-process
# rows at atol 0); the p99 latency and cache-speedup (>= 3x uncached
# qps at concurrency 32) gates self-disable on single-CPU hosts and
# record the reason in the snapshot instead.
run python benchmarks/bench_serve_latency.py --mode smoke --out BENCH_serve.json

stage "socket serving round trip"
# End-to-end through the real CLI: query over the wire, push one raw
# frame and one gap (the server caches raw frames and scales at sample
# time), check the window cache in the stats reply, read the same
# forecast again from the result cache, then ask for a clean drain.
run listen_session <<'PYEOF'
import sys
from repro.data import load_dataset
from repro.serve import ForecastClient

address = open(sys.argv[1], encoding="utf-8").read().strip()
with ForecastClient(address, wait_ready_s=10.0) as client:
    assert client.ping("ci")["pong"] == "ci"
    rows = client.query(0)
    assert rows.shape[0] == 1 and rows.ndim == 4, rows.shape
    prediction, index, generation = client.forecast()
    values, cell_index, _ = client.forecast(cells=[(0, 0)])
    assert cell_index == index
    assert (values[0] == prediction[:, 0, 0]).all()
    snap = client.stats()
    assert snap["result_cache"]["misses"] >= 1
    # The raw flows of the forecast interval (the server warmed its
    # window from this dataset's raw history), then a declared gap.
    client.push(load_dataset("nyc-bike", scale="tiny").flows[index])
    client.push_gap()
    pushed, pushed_index, _ = client.forecast()
    assert pushed_index == index + 2, (index, pushed_index)
    after = client.stats()
    assert after["staleness_ticks"] == snap["staleness_ticks"] + 2, after
    # The window cache, read through the wire.
    cache, before = after["cache"], snap["cache"]
    assert cache["count"] == before["count"] + 2, (before, cache)
    assert cache["gap_count"] == before["gap_count"] + 1, (before, cache)
    # The same tick again: a result-cache hit with the same bits.
    again, again_index, _ = client.forecast()
    assert again_index == pushed_index, (pushed_index, again_index)
    assert (again == pushed).all()
    hits = client.stats()["result_cache"]["hits"]
    assert hits == after["result_cache"]["hits"] + 1, (after, hits)
    client.shutdown()
print("socket round trip OK")
PYEOF

stage "streaming suite"
# Disruption-tolerant runtime: ingest ordering/quarantine/gaps, drift
# vs spike, degradation ladder, warm retrain + hot swap, clean-stream
# bit-identity (tests/stream/, docs/streaming.md).
run python -m pytest tests/stream tests/serve/test_window_cache.py -q

stage "concurrency sanitizer pass (serve + parallel + stream + compile + thread hooks)"
# Re-run the threaded suites with runtime lock instrumentation: the
# conftest gate fails the run on any dynamic lock-order inversion,
# fork-while-locked, long hold, or thread leaked past shutdown.
# tests/compile drives a compiled server from client threads, and
# test_thread_hooks runs ops on a second thread under each hook.
# Schedule-perturbing stress sleeps only widen races when another
# runnable thread exists, so the stress knob self-disables on
# single-CPU hosts (the plain sanitizer detectors still run there).
if [ "$(nproc)" -ge 2 ]; then
    REPRO_TSAN=1 REPRO_TSAN_STRESS=1 REPRO_TSAN_SEED=0 \
        run python -m pytest tests/serve tests/parallel tests/stream \
            tests/compile tests/tensor/test_thread_hooks.py -q
else
    echo "sanitizer stress mode disabled: schedule perturbation needs" \
         ">= 2 CPUs to create real interleavings ($(nproc) CPU host);" \
         "running detectors without stress sleeps"
    REPRO_TSAN=1 run python -m pytest tests/serve tests/parallel tests/stream \
        tests/compile tests/tensor/test_thread_hooks.py -q
fi

stage "sanitizer-overhead bench (smoke)"
# Gates that the disabled sanitizer factories cost <= 5% vs raw
# threading primitives on the serve and stream workloads; the
# wall-clock ratio gate self-disables on single-CPU hosts and records
# the reason in the snapshot instead.
run python benchmarks/bench_concurrency_overhead.py --mode smoke \
    --out BENCH_concurrency.json

stage "stream-robustness bench (smoke)"
# Always gates the clean-stream identity (live model forecasts ==
# offline build_samples -> predict_scaled, max|err| exactly 0) and the
# level-shift recovery contract (adaptive recovers to <= 1.1x its
# pre-disruption nrmse while the frozen arm stays broken); the retrain
# wall-clock budget self-disables on single-CPU hosts and records the
# reason in the snapshot instead.
run python benchmarks/bench_stream_robustness.py --mode smoke \
    --out BENCH_stream.json

if [ "${#FAILED[@]}" -gt 0 ]; then
    echo "ci_check: ${#FAILED[@]} stage(s) failed:" >&2
    printf '  - %s\n' "${FAILED[@]}" >&2
    exit 1
fi
echo "ci_check: OK"
