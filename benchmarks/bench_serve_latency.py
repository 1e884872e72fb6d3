"""Serving latency benchmark: micro-batched throughput + correctness.

Standalone harness (not a pytest-benchmark file): it replays the test
split as single-sample forecast queries from concurrent client threads
through :class:`repro.serve.ForecastServer` at three concurrency arms —
1 (no coalescing possible), 8, and 32 — and records p50/p99 latency,
queue wait, and queries/sec for each.

Gates:

- **Correctness (always enforced)** — the served rows must equal the
  offline evaluation path (``Trainer.predict_scaled``) within float
  summation tolerance (1e-6 for float32, 1e-12 for float64), for a
  batching-hostile request mix (odd counts, coalesced windows, an
  oversized request).  This is the part of the serving contract that
  holds on any host.
- **Single-flight (always enforced)** — K concurrent same-tick clients
  through the generation-aware :class:`~repro.serve.ForecastCache`
  cost exactly **one** model forward, and all K responses are the same
  bits — equal to the uncached offline forward at **atol 0**.
- **Socket parity (always enforced)** — rows served through the
  :class:`~repro.serve.SocketFrontend` wire protocol equal the
  in-process rows at **atol 0** (the JSON float transport is exact).
- **Latency / cache speedup (hardware-gated)** — p99 latency at
  concurrency 8 must stay under ``--max-p99-ms``, and the cached
  same-tick arm (``forecast_tick``) must reach >=
  ``--min-cache-speedup`` x the qps of the uncached arm at concurrency
  32, whose clients each sample the window and send it through the
  micro-batcher (``server.forecast(server.cache.sample()[0])``).  Both
  arms run their pre-started clients for a fixed time budget.
  Wall-clock is physics: on a single-CPU host
  the numbers are still measured and recorded, but the gates are
  skipped with an explicit ``skipped_reason`` in the snapshot instead
  of failing CI (mirroring ``BENCH_parallel.json``).

Emits a JSON snapshot (default ``BENCH_serve.json``)::

    PYTHONPATH=src python benchmarks/bench_serve_latency.py --mode smoke
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from time import perf_counter

import numpy as np

from repro.core import MuseConfig, MUSENet
from repro.data import load_dataset, prepare_forecast_data
from repro.serve import ForecastClient, ForecastServer, ServeConfig, \
    SocketFrontend
from repro.training import TrainConfig, Trainer

CONCURRENCIES = (1, 8, 32)


class CountingModel:
    """Delegating wrapper counting ``predict`` calls (the server runs
    them one at a time under its forward lock)."""

    def __init__(self, model):
        self._model = model
        self.forwards = 0

    def predict(self, batch):
        self.forwards += 1
        return self._model.predict(batch)

    def parameters(self):
        return self._model.parameters()

    def eval(self):
        self._model.eval()
        return self

    def load_state_dict(self, state):
        return self._model.load_state_dict(state)


def build_setup(scale, seed=0):
    """Small MUSE-Net + prepared data, same shape as the parallel bench."""
    dataset = load_dataset("nyc-bike", scale=scale)
    data = prepare_forecast_data(dataset, max_train_samples=32,
                                 max_test_samples=12)
    config = MuseConfig.for_data(
        data, rep_channels=8, latent_interactive=16, res_blocks=1,
        plus_channels=2, decoder_hidden=32, seed=seed,
    )
    return MUSENet(config), data


def replay(server, test, requests, concurrency):
    """Replay the test split as single-sample queries; returns the rows."""
    queries = [test.slice(i % len(test), i % len(test) + 1)
               for i in range(requests)]
    with ThreadPoolExecutor(max_workers=concurrency) as clients:
        rows = list(clients.map(server.forecast, queries))
    return np.concatenate(rows, axis=0)


def time_concurrency(model, data, concurrency, requests, max_batch,
                     max_wait_ms):
    """One arm: qps + latency percentiles at a fixed client concurrency."""
    config = ServeConfig(max_batch=max_batch, max_wait_ms=max_wait_ms)
    with ForecastServer(model, config) as server:
        replay(server, data.test, min(requests, 4), concurrency)  # warm-up
        server.stats.reset_clock()
        replay(server, data.test, requests, concurrency)
        snap = server.snapshot()
    return {
        "concurrency": concurrency,
        "requests": snap["requests"],
        "batches": snap["batches"],
        "queries_per_sec": snap["queries_per_sec"],
        "latency_ms": snap["latency_ms"],
        "queue_wait_ms": snap["queue_wait_ms"],
        "batch_size": snap["batch_size"],
    }


def check_correctness(max_batch=8, concurrency=4):
    """Served rows vs ``Trainer.predict_scaled``, both precisions.

    The request mix is deliberately batching-hostile: 13 concurrent
    single-sample queries (odd coalescing windows against max_batch=8)
    plus one oversized 13-sample request (> max_batch, served alone in
    pool-chunked forwards).  Every row must still match the offline
    evaluation path bit-for-bit within float tolerance.
    """
    results = {}
    dataset = load_dataset("nyc-bike", scale="tiny")
    data = prepare_forecast_data(dataset, max_train_samples=16,
                                 max_test_samples=13)
    config = MuseConfig.for_data(
        data, rep_channels=8, latent_interactive=16, res_blocks=1,
        plus_channels=2, decoder_hidden=32, seed=0,
    )
    for dtype, atol in ((np.float32, 1e-6), (np.float64, 1e-12)):
        model = MUSENet(config)
        for param in model.parameters():
            param.data = param.data.astype(dtype)
        test = data.test.astype(dtype)
        offline = Trainer(model, TrainConfig(epochs=0)).predict_scaled(test)

        serve_config = ServeConfig(max_batch=max_batch, max_wait_ms=5.0)
        with ForecastServer(model, serve_config) as server:
            with ThreadPoolExecutor(max_workers=concurrency) as clients:
                singles = list(clients.map(
                    server.forecast,
                    [test.slice(i, i + 1) for i in range(len(test))]))
            oversized = server.forecast(test)  # 13 > max_batch
        served = np.concatenate(singles, axis=0)
        diff = max(float(np.abs(served - offline).max()),
                   float(np.abs(oversized - offline).max()))
        results[np.dtype(dtype).name] = {
            "max_abs_diff": diff, "atol": atol, "pass": diff <= atol}
    return results


def _streaming_server(model, data, max_wait_ms=2.0):
    """Started streaming server, window warmed from the scaled history."""
    config = ServeConfig(max_wait_ms=max_wait_ms)
    server = ForecastServer(model, config, periodicity=data.periodicity,
                            frame_shape=data.test.target.shape[1:])
    server.start()
    scaled = data.scaler.transform(data.dataset.flows)
    for frame in scaled[:data.periodicity.min_index]:
        server.cache.push(frame)
    return server


def check_single_flight(data, clients=32):
    """K concurrent same-tick requests: one forward, identical bits.

    The gate holds on any host — the owner/join decision is atomic
    under the cache lock, so exactly one forward runs no matter how the
    threads interleave; no timing is involved.
    """
    config = MuseConfig.for_data(
        data, rep_channels=8, latent_interactive=16, res_blocks=1,
        plus_channels=2, decoder_hidden=32, seed=0,
    )
    model = CountingModel(MUSENet(config))
    server = _streaming_server(model, data)
    try:
        # Uncached offline reference for the same target windows.
        sample, _imputed = server.cache.sample()
        offline = Trainer(model._model,
                          TrainConfig(epochs=0)).predict_scaled(sample)[0]
        model.forwards = 0
        results = []
        barrier = threading.Barrier(clients)

        def worker():
            barrier.wait()
            results.append(server.forecast_tick())

        threads = [threading.Thread(target=worker) for _ in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        forwards = model.forwards
        snap = server.results.snapshot()
    finally:
        server.close()
    values = [r[0] for r in results]
    identical = all(v is values[0] for v in values[1:])
    max_diff = float(max(np.abs(v - offline).max() for v in values))
    return {
        "clients": clients,
        "forwards": forwards,
        "bitwise_identical": identical,
        "max_abs_diff_vs_offline": max_diff,
        "cache": snap,
        "pass": forwards == 1 and identical and max_diff == 0.0,
    }


def time_cache(data, concurrency=32, budget_s=0.25):
    """Cached vs uncached same-tick qps at fixed client concurrency.

    The cached arm calls ``forecast_tick``; each uncached request
    samples the window and forwards it through the micro-batcher.  Each
    arm starts its client threads first and holds them on a barrier.
    The clock starts when the barrier releases them, and every client
    then issues requests back to back until ``budget_s`` has passed.
    So thread start-up is never timed, and the fast arm is timed over
    thousands of requests rather than a handful.  qps is the completed
    requests over the time from the release to the last client's return.
    """
    config = MuseConfig.for_data(
        data, rep_channels=8, latent_interactive=16, res_blocks=1,
        plus_channels=2, decoder_hidden=32, seed=0,
    )
    arms = {}
    for name in ("cached", "uncached"):
        server = _streaming_server(MUSENet(config), data, max_wait_ms=0.5)
        request = server.forecast_tick if name == "cached" else (
            lambda: server.forecast(server.cache.sample()[0]))
        clock = {}
        release = threading.Barrier(
            concurrency + 1, action=lambda: clock.setdefault("start",
                                                             perf_counter()))

        def client():
            release.wait()
            deadline = clock["start"] + budget_s
            done = 0
            while perf_counter() < deadline:
                request()
                done += 1
            return done

        try:
            request()  # warm-up forward
            server.stats.reset_clock()
            with ThreadPoolExecutor(max_workers=concurrency) as pool:
                clients = [pool.submit(client) for _ in range(concurrency)]
                release.wait(timeout=60.0)
                completed = sum(future.result() for future in clients)
                elapsed = perf_counter() - clock["start"]
        finally:
            server.close()
        arms[name] = {
            "requests": completed,
            "concurrency": concurrency,
            "budget_s": budget_s,
            "elapsed_s": elapsed,
            "queries_per_sec": completed / max(elapsed, 1e-9),
        }
    arms["speedup"] = (arms["cached"]["queries_per_sec"]
                       / max(arms["uncached"]["queries_per_sec"], 1e-9))
    return arms


def check_socket(data, requests=8):
    """Socket-served rows vs the same server's in-process rows, atol 0."""
    config = MuseConfig.for_data(
        data, rep_channels=8, latent_interactive=16, res_blocks=1,
        plus_channels=2, decoder_hidden=32, seed=0,
    )
    model = MUSENet(config)
    server = _streaming_server(model, data, max_wait_ms=0.5)
    test = data.test
    try:
        frontend = SocketFrontend(server, ("127.0.0.1", 0), queries=test)
        with frontend:
            with ForecastClient(frontend.address) as client:
                diffs = []
                for i in range(min(requests, len(test))):
                    wire_rows = client.query(i)
                    local_rows = server.forecast(test.slice(i, i + 1))
                    diffs.append(float(np.abs(wire_rows - local_rows).max()))
                wire_pred, wire_index, _gen = client.forecast()
                local_pred, local_index, _gen, _imputed = \
                    server.forecast_tick()
                diffs.append(float(np.abs(wire_pred - local_pred).max()))
            telemetry = frontend.snapshot()
    finally:
        server.close()
    max_diff = max(diffs)
    return {
        "requests": len(diffs),
        "max_abs_diff": max_diff,
        "index_match": wire_index == local_index,
        "frontend": telemetry,
        "pass": max_diff == 0.0 and wire_index == local_index,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("smoke", "full"), default="full",
                        help="smoke: tiny data, few requests; for CI")
    parser.add_argument("--requests", type=int, default=None,
                        help="queries per arm (overrides --mode default)")
    parser.add_argument("--out", default="BENCH_serve.json",
                        help="where to write the JSON snapshot")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="micro-batching cap for the latency arms")
    parser.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="batching window for the latency arms")
    parser.add_argument("--max-p99-ms", type=float, default=500.0,
                        help="required p99 latency at concurrency 8 "
                             "(enforced only on hosts with >= 2 CPUs)")
    parser.add_argument("--min-cache-speedup", type=float, default=3.0,
                        help="required cached/uncached same-tick qps ratio "
                             "at concurrency 32 (enforced only on hosts "
                             "with >= 2 CPUs)")
    args = parser.parse_args(argv)
    smoke = args.mode == "smoke"
    requests = args.requests if args.requests is not None else (
        16 if smoke else 96)
    scale = "tiny" if smoke else "small"
    cpu_count = os.cpu_count() or 1

    model, data = build_setup(scale)
    arms = {}
    for concurrency in CONCURRENCIES:
        arms[f"concurrency-{concurrency}"] = time_concurrency(
            model, data, concurrency, requests, args.max_batch,
            args.max_wait_ms)
    correctness = check_correctness(max_batch=args.max_batch)
    single_flight = check_single_flight(data)
    cache_arms = time_cache(data, budget_s=(0.25 if smoke else 1.0))
    arms["cache"] = cache_arms
    socket_parity = check_socket(data)

    p99_at_8 = arms["concurrency-8"]["latency_ms"]["p99"]
    wall_clock_enforced = cpu_count >= 2
    wall_clock_reason = None if wall_clock_enforced else (
        "wall-clock gates need >= 2 CPUs (client threads contend "
        f"with the forward on {cpu_count} CPU)")
    gates = {
        "correctness": {
            "enforced": True,
            "pass": all(r["pass"] for r in correctness.values()),
        },
        "single_flight": {
            "enforced": True,
            "pass": single_flight["pass"],
        },
        "socket_parity": {
            "enforced": True,
            "pass": socket_parity["pass"],
        },
        "latency": {
            "required_p99_ms": args.max_p99_ms,
            "actual_p99_ms": p99_at_8,
            "enforced": wall_clock_enforced,
            "skipped_reason": wall_clock_reason,
        },
        "cache_speedup": {
            "required_ratio": args.min_cache_speedup,
            "actual_ratio": cache_arms["speedup"],
            "enforced": wall_clock_enforced,
            "skipped_reason": wall_clock_reason,
        },
    }

    snapshot = {
        "bench": "serve_latency",
        "mode": args.mode,
        "scale": scale,
        "cpu_count": cpu_count,
        "requests_per_arm": requests,
        "max_batch": args.max_batch,
        "max_wait_ms": args.max_wait_ms,
        "arms": arms,
        "correctness": correctness,
        "single_flight": single_flight,
        "socket_parity": socket_parity,
        "gates": gates,
    }
    with open(args.out, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)

    for name, arm in arms.items():
        if name == "cache":
            continue
        lat = arm["latency_ms"]
        print(f"{name:15s} {arm['queries_per_sec']:8.1f} qps   "
              f"p50 {lat['p50']:7.2f} ms   p99 {lat['p99']:7.2f} ms   "
              f"mean batch {arm['batch_size']['mean']:.2f}")
    print(f"{'cache/cached':15s} "
          f"{cache_arms['cached']['queries_per_sec']:8.1f} qps   "
          f"uncached {cache_arms['uncached']['queries_per_sec']:8.1f} qps   "
          f"speedup {cache_arms['speedup']:.1f}x")
    for name, r in correctness.items():
        print(f"correctness[{name}]: max |diff| {r['max_abs_diff']:.3g} "
              f"(atol {r['atol']:g}) {'OK' if r['pass'] else 'FAIL'}")
    print(f"single-flight: {single_flight['clients']} clients -> "
          f"{single_flight['forwards']} forward(s), max |diff| vs offline "
          f"{single_flight['max_abs_diff_vs_offline']:g} "
          f"{'OK' if single_flight['pass'] else 'FAIL'}")
    print(f"socket parity: max |diff| {socket_parity['max_abs_diff']:g} "
          f"over {socket_parity['requests']} request(s) "
          f"{'OK' if socket_parity['pass'] else 'FAIL'}")
    print(f"wrote {args.out}")

    failed = False
    if not gates["correctness"]["pass"]:
        print("FAIL: served forecasts diverge from the offline "
              "evaluation path", file=sys.stderr)
        failed = True
    if not single_flight["pass"]:
        print(f"FAIL: single-flight broke — {single_flight['clients']} "
              f"same-tick clients cost {single_flight['forwards']} "
              "forward(s) or returned non-identical bits", file=sys.stderr)
        failed = True
    if not socket_parity["pass"]:
        print("FAIL: socket-served rows diverge from in-process rows "
              f"(max |diff| {socket_parity['max_abs_diff']:g})",
              file=sys.stderr)
        failed = True
    if wall_clock_enforced:
        if p99_at_8 > args.max_p99_ms:
            print(f"FAIL: p99 latency {p99_at_8:.1f} ms at concurrency 8 "
                  f"above allowed {args.max_p99_ms:.1f} ms", file=sys.stderr)
            failed = True
        if cache_arms["speedup"] < args.min_cache_speedup:
            print(f"FAIL: cache speedup {cache_arms['speedup']:.2f}x below "
                  f"required {args.min_cache_speedup:.1f}x", file=sys.stderr)
            failed = True
    else:
        print(f"wall-clock gates skipped: {wall_clock_reason}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
