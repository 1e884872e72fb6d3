"""Command-line interface.

Everything the experiment runners can do, from the shell:

    python -m repro info
    python -m repro simulate nyc-bike --scale tiny --out bike.npz
    python -m repro train MUSE-Net --dataset nyc-bike --profile ci
    python -m repro train MUSE-Net --checkpoint-dir runs/bike --resume
    python -m repro evaluate MUSE-Net --checkpoint runs/bike
    python -m repro experiment table2 --profile ci
    python -m repro complexity

Operational failures (missing or corrupt checkpoints, invalid config
values, diverged training) exit non-zero with a one-line actionable
message on stderr rather than a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import __version__
from repro.baselines import BASELINE_NAMES
from repro.core import VARIANT_NAMES
from repro.data import DATASET_NAMES, load_dataset
from repro.data.io import save_dataset
from repro.parallel import ParallelWorkerError
from repro.training import (
    CheckpointCorruptError,
    DivergenceError,
    find_latest_checkpoint,
)
from repro.experiments import (
    PROFILES,
    prepare,
    run_fig1,
    run_fig2,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
    train_baseline,
    train_muse,
)

EXPERIMENTS = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
    "table6": run_table6,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
}


def _cmd_info(_args):
    print(f"repro {__version__} — MUSE-Net (ICDE 2024) reproduction")
    print(f"datasets:    {', '.join(DATASET_NAMES)}  (scales: full, small, tiny)")
    print(f"methods:     MUSE-Net, {', '.join(BASELINE_NAMES)}")
    print(f"variants:    {', '.join(VARIANT_NAMES)}")
    print(f"profiles:    {', '.join(PROFILES)}")
    print(f"experiments: {', '.join(EXPERIMENTS)}")
    return 0


def _cmd_simulate(args):
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    print(dataset.summary())
    if args.out:
        save_dataset(dataset, args.out)
        print(f"wrote {args.out}")
    return 0


def _train_overrides(args):
    """TrainConfig overrides from the robustness CLI flags."""
    overrides = {}
    if getattr(args, "sentinel", None) is not None:
        overrides["sentinel"] = None if args.sentinel == "off" else args.sentinel
    if getattr(args, "checkpoint_dir", None):
        overrides["checkpoint_dir"] = args.checkpoint_dir
    if getattr(args, "checkpoint_every", None) is not None:
        overrides["checkpoint_every"] = args.checkpoint_every
    if getattr(args, "resume", False):
        overrides["resume"] = True
    if getattr(args, "detect_anomaly", False):
        overrides["detect_anomaly"] = True
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = args.workers
    if getattr(args, "compile", False):
        overrides["compile"] = True
    return overrides or None


def _unknown_method(method):
    """Report an unknown ``method`` on stderr; returns exit code 2."""
    print(f"unknown method {method!r}; choose MUSE-Net or one of "
          f"{', '.join(BASELINE_NAMES)}", file=sys.stderr)
    return 2


def _build_model(args, data):
    """The untrained model ``args.method`` names, sized for ``data``;
    ``None`` for an unknown method."""
    from repro.baselines import BaselineConfig, make_baseline
    from repro.core import MUSENet
    from repro.experiments.common import get_profile, muse_config

    profile = get_profile(args.profile)
    if args.method == "MUSE-Net":
        return MUSENet(muse_config(data, profile, seed=args.seed))
    if args.method in BASELINE_NAMES:
        return make_baseline(args.method, BaselineConfig.for_data(
            data, hidden=profile.hidden, seed=args.seed))
    return None


def _resolve_checkpoint(path):
    """``path`` itself, or the newest valid archive in a directory;
    ``None`` (reported on stderr) when the directory holds none."""
    if not os.path.isdir(path):
        return path
    found = find_latest_checkpoint(path)
    if found is None:
        print(f"error: no valid checkpoint found in {path!r} (corrupt "
              "archives are skipped); train with --checkpoint-dir first",
              file=sys.stderr)
    return found


def _cmd_train(args):
    data = prepare(args.dataset, args.profile, horizon=args.horizon)
    profile_ops = getattr(args, "profile_ops", False)
    dtype = getattr(args, "dtype", None)
    overrides = _train_overrides(args)
    if args.method == "MUSE-Net":
        trainer = train_muse(data, args.profile, seed=args.seed,
                             profile_ops=profile_ops, dtype=dtype,
                             train_overrides=overrides)
    elif args.method in BASELINE_NAMES:
        trainer = train_baseline(args.method, data, args.profile, seed=args.seed,
                                 profile_ops=profile_ops, dtype=dtype,
                                 train_overrides=overrides)
    else:
        return _unknown_method(args.method)
    report = trainer.evaluate(data)
    print(f"{args.method} on {args.dataset} [{args.profile}] horizon {args.horizon}")
    print(report)
    history = trainer.history
    if history is not None:
        print(history.telemetry_summary())
        if history.sentinel and history.sentinel.get("counts"):
            counts = ", ".join(f"{kind}: {n}" for kind, n
                               in sorted(history.sentinel["counts"].items()))
            print(f"sentinel [{history.sentinel['policy']}] triggered — {counts}")
        if history.parallel:
            par = history.parallel
            print(f"parallel: {par['workers']} workers, "
                  f"allreduce {par['reduce_s']:.2f}s over "
                  f"{par['reduce_count']} steps, "
                  f"prefetch stall {par['prefetch_stall_s']:.2f}s")
        if history.compiled:
            comp = history.compiled
            print(f"compile: {comp['plans_built']} plan(s), "
                  f"{comp['compiled_steps']} compiled / "
                  f"{comp['eager_steps']} eager step(s), "
                  f"arena {comp['arena_bytes'] / 2**20:.2f} MiB "
                  f"({comp['arena_reuse_pct']:.0f}% scratch reuse), "
                  f"{comp['fused_chains']} fused chain(s) over "
                  f"{comp['kernels']} kernel(s)")
            for key, reason in sorted(comp["fallbacks"].items()):
                print(f"compile fallback [{key}]: {reason}")
        if history.interrupted:
            print("run interrupted; resume with --resume and the same "
                  "--checkpoint-dir")
        if history.op_profile:
            from repro.profiling import format_op_summary

            print(format_op_summary(history.op_profile))
    return 0


def _cmd_evaluate(args):
    from repro.training import Trainer, load_checkpoint

    data = prepare(args.dataset, args.profile, horizon=args.horizon)
    model = _build_model(args, data)
    if model is None:
        return _unknown_method(args.method)
    path = _resolve_checkpoint(args.checkpoint)
    if path is None:
        return 1
    trainer = Trainer(model)
    load_checkpoint(path, model, trainer.optimizer)
    report = trainer.evaluate(data)
    print(f"{args.method} on {args.dataset} [{args.profile}] horizon "
          f"{args.horizon} (checkpoint {path})")
    print(report)
    return 0


def _serve_listen(args, server, data, test):
    """Socket-serving session: listen until a shutdown frame or ctrl-C.

    Warms the streaming window from the flow history preceding the test
    split (so ``forecast``/``push`` ops work immediately), binds the
    asyncio front-end, optionally writes the resolved address (ephemeral
    ports!) to ``--address-file``, and blocks until a client sends the
    ``shutdown`` op — then drains connections and exits 0.  Ctrl-C
    drains the same way and exits 130 (the interrupt contract).
    """
    from repro.serve import SocketFrontend
    from repro.serve import wire

    warm_to = int(test.indices[0])
    for frame in data.dataset.flows[:warm_to]:
        server.push_tick(frame)
    frontend = SocketFrontend(server, wire.parse_address(args.listen),
                              queries=test,
                              max_connections=args.max_connections)
    frontend.start()
    try:
        spec = wire.format_address(frontend.address)
        if args.address_file:
            # Write-then-rename: a polling client must never read a
            # half-written address.
            tmp = args.address_file + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(spec + "\n")
            os.replace(tmp, args.address_file)
        print(f"serving {args.method} on {spec} "
              f"({len(test)} replay samples; send a shutdown frame or "
              "ctrl-C to stop)", flush=True)
        frontend.wait_for_shutdown()
    except KeyboardInterrupt:
        print("interrupted — draining connections", file=sys.stderr)
        return 130
    finally:
        frontend.close()
    print("shutdown requested — drained cleanly", flush=True)
    return 0


def _cmd_serve(args):
    """Run a serving session: replay test traffic, report latency stats."""
    import json
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    from repro.serve import ForecastServer, ServeConfig
    from repro.training import Trainer

    if args.requests < 1:
        raise ValueError(f"--requests must be >= 1; got {args.requests}")
    if args.concurrency < 1:
        raise ValueError(f"--concurrency must be >= 1; got {args.concurrency}")
    data = prepare(args.dataset, args.profile, horizon=args.horizon)
    model = _build_model(args, data)
    if model is None:
        return _unknown_method(args.method)

    config = ServeConfig(max_batch=args.max_batch,
                         max_wait_ms=args.max_wait_ms,
                         replicas=args.replicas,
                         compile=getattr(args, "compile", False),
                         min_replicas=getattr(args, "min_replicas", 0),
                         max_replicas=getattr(args, "max_replicas", 0))
    test = data.test
    server = ForecastServer(model, config, scaler=data.scaler,
                            periodicity=data.periodicity,
                            frame_shape=test.target.shape[1:],
                            template=test)
    with server:
        if args.checkpoint:
            path = _resolve_checkpoint(args.checkpoint)
            if path is None:
                return 1
            generation = server.load_checkpoint(path)
            print(f"installed {path} (generation {generation})")

        if getattr(args, "listen", None):
            return _serve_listen(args, server, data, test)

        # Replay the test split as `--requests` single-sample queries
        # from `--concurrency` concurrent clients.
        requests = args.requests
        queries = [test.slice(i % len(test), i % len(test) + 1)
                   for i in range(requests)]
        with ThreadPoolExecutor(max_workers=args.concurrency) as clients:
            served = list(clients.map(server.forecast, queries))
        served = np.concatenate(served, axis=0)
        snap = server.snapshot()

    # Correctness gate: served rows must match the offline eval path.
    offline = Trainer(model).predict_scaled(test)
    reference = offline[[i % len(test) for i in range(requests)]]
    atol = 1e-6 if served.dtype == np.float32 else 1e-12
    max_err = float(np.abs(served - reference).max())
    snap["max_abs_error_vs_offline"] = max_err
    if args.format == "json":
        print(json.dumps(snap, indent=2))
    else:
        print(f"{args.method} serving on {args.dataset} [{args.profile}] — "
              f"{snap['requests']} requests, {snap['batches']} batches, "
              f"concurrency {args.concurrency}")
        lat, wait = snap["latency_ms"], snap["queue_wait_ms"]
        print(f"latency p50 {lat['p50']:.2f} ms  p99 {lat['p99']:.2f} ms  "
              f"max {lat['max']:.2f} ms")
        print(f"queue wait p50 {wait['p50']:.2f} ms  p99 {wait['p99']:.2f} ms")
        print(f"throughput {snap['queries_per_sec']:.1f} qps  "
              f"mean batch {snap['batch_size']['mean']:.2f}  "
              f"generation {snap['generation']}")
        print(f"served == offline predict_scaled: max|err| {max_err:.3g} "
              f"(atol {atol:g})")
    if max_err > atol:
        print(f"error: served forecasts diverge from the offline eval path "
              f"(max|err| {max_err:.3g} > atol {atol:g})", file=sys.stderr)
        return 1
    return 0


def _cmd_stream(args):
    """Replay a disruption scenario through the streaming runtime."""
    import json
    import tempfile

    import numpy as np

    from repro.data.windows import build_samples
    from repro.stream import simulate as sim
    from repro.training import Trainer

    scenario = sim.make_scenario(args.scenario, seed=args.seed)
    state = sim.train_offline(scenario, epochs=args.epochs, seed=args.seed)
    adaptive = not args.frozen
    with tempfile.TemporaryDirectory(prefix="repro-stream-") as ckpt_dir:
        runtime = sim.build_runtime(scenario, state, adaptive=adaptive,
                                    checkpoint_dir=ckpt_dir, seed=args.seed)
        with runtime:
            results = sim.run_scenario(scenario, runtime)
            telemetry = runtime.snapshot()
    report = sim.evaluate_results(scenario, results)

    # Clean-stream correctness gate: every model-sourced live forecast
    # must be bit-identical to the offline build_samples ->
    # predict_scaled path on the same interval.
    max_err = None
    if args.scenario == "clean":
        scaler = sim.fit_scaler(scenario)
        reference_model = sim.make_model(scenario.grid, scenario.periodicity,
                                         seed=args.seed)
        reference_model.load_state_dict(state)
        trainer = Trainer(reference_model)
        scaled = scaler.transform(scenario.flows)
        max_err = 0.0
        for result, _ in results:
            if result.source != "model":
                continue
            batch = build_samples(scaled, scenario.periodicity,
                                  [result.index])
            offline = scaler.inverse_transform(
                np.asarray(trainer.predict_scaled(batch))[0])
            max_err = max(max_err,
                          float(np.abs(result.flows - offline).max()))
        report["max_abs_error_vs_offline"] = max_err

    if args.format == "json":
        report["telemetry"] = telemetry
        print(json.dumps(report, indent=2, default=str))
    else:
        print(f"stream scenario {scenario.name!r}: {scenario.description}")
        print(f"mode: {'adaptive' if adaptive else 'frozen'}  seed: "
              f"{args.seed}  live ticks forecast: {report['ticks_forecast']}")
        for segment in ("pre", "post", "recovery"):
            stats = report[segment]
            if stats is None:
                continue
            print(f"{segment:>9}: {stats['ticks']:3d} ticks  "
                  f"rmse {stats['rmse']:.3f}  nrmse {stats['nrmse']:.4f}")
        print("sources: " + ", ".join(
            f"{name}={count}" for name, count in
            sorted(report["sources"].items())))
        ingest = telemetry["ingest"]
        print(f"ingest: {ingest['counts']['emitted']} emitted, "
              f"{ingest['counts']['gaps']} gaps, "
              f"{ingest['counts']['quarantined']} quarantined, "
              f"{ingest['counts']['reordered']} reordered")
        print(f"drift: {telemetry['drift']['drifts']} confirmed, "
              f"{telemetry['drift']['spikes']} spikes; "
              f"retrains {telemetry['retrains']}, "
              f"retrain failures {len(telemetry['retrain_failures'])}, "
              f"masked cells {telemetry['masked_cells']}")
        serve = telemetry["serve"]
        print(f"serve: generation {serve['generation']}, staleness "
              f"{serve['staleness_ticks']} ticks, degraded "
              f"{telemetry['degraded']}")
        if max_err is not None:
            print(f"clean stream == offline predict_scaled: max|err| "
                  f"{max_err:.3g}")

    if max_err is not None and max_err > 0.0:
        print(f"error: live forecasts diverge from the offline pipeline "
              f"(max|err| {max_err:.3g} > 0)", file=sys.stderr)
        return 1
    return 0


def _cmd_experiment(args):
    runner = EXPERIMENTS.get(args.name)
    if runner is None:
        print(f"unknown experiment {args.name!r}; choose from "
              f"{', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    result = runner(profile=args.profile)
    print(result)
    return 0


def _cmd_complexity(args):
    print(run_table1(profile=args.profile))
    return 0


def _cmd_report(args):
    from repro.experiments import build_dataset_report

    print(build_dataset_report(args.dataset))
    return 0


def _repo_root():
    """Repo root for lint paths: the directory holding pyproject.toml."""
    package_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    if os.path.isfile(os.path.join(package_root, "pyproject.toml")):
        return package_root
    return os.getcwd()


def _cmd_check_model(args):
    import json

    import numpy as np

    from repro.inspect import check_method

    dtype = np.float32 if args.dtype == "float32" else np.float64
    methods = args.method or ["MUSE-Net"]
    reports = []
    try:
        for method in methods:
            reports.append(check_method(method, dtype=dtype))
    except ValueError:
        raise  # bad method/config -> exit 2 via main()
    except Exception as exc:  # internal checker failure -> exit 1
        print(f"error: check-model failed on {method!r}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        print("\n".join(r.format_text() for r in reports))
    return 0 if all(r.ok for r in reports) else 2


def _cmd_lint(args):
    import json

    from repro.inspect import lint_paths, load_config

    root = _repo_root()
    paths = args.path or [os.path.join(root, "src", "repro")]
    try:
        config = load_config(root)
        report = lint_paths(paths, root=root, config=config)
    except ValueError:
        raise  # bad [tool.repro.lint] config -> exit 2 via main()
    except Exception as exc:  # internal linter failure -> exit 1
        print(f"error: lint failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format_text())
    return 0 if report.ok else 2


def _cmd_check_concurrency(args):
    import json

    from repro.inspect import check_concurrency, load_config

    root = _repo_root()
    paths = args.path or None
    try:
        config = load_config(root)
        report = check_concurrency(paths, root=root, config=config)
    except ValueError:
        raise  # bad [tool.repro.lint] config -> exit 2 via main()
    except Exception as exc:  # internal checker failure -> exit 1
        print(f"error: check-concurrency failed: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format_text())
    return 0 if report.ok else 2


def build_parser():
    """Construct the argparse CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MUSE-Net (ICDE 2024) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="list datasets, methods, and experiments")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("simulate", help="simulate a dataset (optionally save it)")
    p.add_argument("dataset", choices=DATASET_NAMES)
    p.add_argument("--scale", default="tiny", choices=("full", "small", "tiny"))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="write the dataset to this .npz")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="train one method and print test metrics")
    p.add_argument("method", help="MUSE-Net or a baseline name")
    p.add_argument("--dataset", default="nyc-bike", choices=DATASET_NAMES)
    p.add_argument("--profile", default="ci", choices=tuple(PROFILES))
    p.add_argument("--horizon", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile-ops", action="store_true",
                   help="collect and print a per-op runtime profile")
    p.add_argument("--dtype", default=None, choices=("float32", "float64"),
                   help="training compute precision (default: keep float64)")
    p.add_argument("--sentinel", default=None,
                   choices=("off", "raise", "skip_batch", "rollback"),
                   help="divergence sentinel policy (default: raise)")
    p.add_argument("--checkpoint-dir", default=None,
                   help="write rotating periodic checkpoints here")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   help="checkpoint cadence in epochs (needs --checkpoint-dir)")
    p.add_argument("--resume", action="store_true",
                   help="resume from the newest valid checkpoint in "
                        "--checkpoint-dir (corrupt archives are skipped)")
    p.add_argument("--detect-anomaly", action="store_true",
                   help="run under detect_anomaly() to pinpoint the op "
                        "introducing a NaN/Inf (slow; debugging only)")
    p.add_argument("--workers", type=int, default=None,
                   help="data-parallel worker processes (default: 0, "
                        "single-process; see docs/performance.md)")
    p.add_argument("--compile", action="store_true",
                   help="graph-compile the training step: record once per "
                        "batch signature, replay a fused in-place kernel "
                        "schedule (bit-identical to eager; see "
                        "docs/performance.md)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate",
                       help="evaluate a saved checkpoint on the test split")
    p.add_argument("method", help="MUSE-Net or a baseline name")
    p.add_argument("--checkpoint", required=True,
                   help="checkpoint file, or a directory to pick the newest "
                        "valid archive from")
    p.add_argument("--dataset", default="nyc-bike", choices=DATASET_NAMES)
    p.add_argument("--profile", default="ci", choices=tuple(PROFILES))
    p.add_argument("--horizon", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser(
        "serve",
        help="serve forecasts with micro-batching; replay test traffic "
             "and print p50/p99 latency and throughput")
    p.add_argument("method", help="MUSE-Net or a baseline name")
    p.add_argument("--checkpoint", default=None,
                   help="hot-install this checkpoint (file, or a directory "
                        "to pick the newest valid archive from) before "
                        "serving; omit to serve the freshly seeded model")
    p.add_argument("--dataset", default="nyc-bike", choices=DATASET_NAMES)
    p.add_argument("--profile", default="ci", choices=tuple(PROFILES))
    p.add_argument("--horizon", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--requests", type=int, default=64,
                   help="number of single-sample queries to replay "
                        "(default: 64)")
    p.add_argument("--concurrency", type=int, default=8,
                   help="concurrent client threads (default: 8)")
    p.add_argument("--max-batch", type=int, default=32,
                   help="samples coalesced per forward (default: 32)")
    p.add_argument("--max-wait-ms", type=float, default=2.0,
                   help="batching window after the first request in ms "
                        "(default: 2.0)")
    p.add_argument("--replicas", type=int, default=0,
                   help="forked replica processes over one shared weight "
                        "buffer; 0 = in-process forwards (default)")
    p.add_argument("--min-replicas", type=int, default=0,
                   help="autoscaler lower bound; with --max-replicas, "
                        "the pool grows/shrinks between the bounds from "
                        "queue telemetry (0 = autoscaling off)")
    p.add_argument("--max-replicas", type=int, default=0,
                   help="autoscaler upper bound (requires --replicas >= 1 "
                        "as the starting size; 0 = autoscaling off)")
    p.add_argument("--listen", default=None, metavar="HOST:PORT",
                   help="serve over a socket instead of replaying: bind "
                        "the asyncio front-end on HOST:PORT (port 0 = "
                        "ephemeral) or unix:PATH and run until a client "
                        "sends the shutdown op")
    p.add_argument("--address-file", default=None,
                   help="with --listen, write the resolved address spec "
                        "to this file once bound (how scripts discover "
                        "an ephemeral port)")
    p.add_argument("--max-connections", type=int, default=32,
                   help="with --listen, concurrent-connection cap; excess "
                        "connections get an explicit busy reply "
                        "(default: 32)")
    p.add_argument("--compile", action="store_true",
                   help="graph-compile the in-process forward: record "
                        "predict once per batch size, replay a fused "
                        "arena-backed kernel schedule (requires "
                        "--replicas 0; bit-identical to eager)")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "stream",
        help="replay a disruption scenario through the streaming "
             "runtime; report segmented accuracy, fault telemetry, and "
             "the clean-stream correctness gate")
    p.add_argument("--scenario", default="clean",
                   help="disruption scenario "
                        "(clean, late, dropout, corrupt, outage, "
                        "level_shift, closure, surge)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=8,
                   help="offline pre-training epochs before the live "
                        "segment starts (default: 8)")
    p.add_argument("--frozen", action="store_true",
                   help="disable drift adaptation (the comparison arm); "
                        "default is the adaptive runtime")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("experiment", help="regenerate one paper table/figure")
    p.add_argument("name", help=f"one of: {', '.join(EXPERIMENTS)}")
    p.add_argument("--profile", default="ci", choices=tuple(PROFILES))
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("complexity", help="print the Table I comparison")
    p.add_argument("--profile", default="ci", choices=tuple(PROFILES))
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("report", help="diagnose a dataset's periodic structure")
    p.add_argument("dataset", choices=DATASET_NAMES)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "check-model",
        help="statically check a model graph (shapes, dtypes, gradient "
             "reachability, numeric hazards) before training")
    p.add_argument("method", nargs="*",
                   help="MUSE-Net (default) and/or baseline names")
    p.add_argument("--dtype", default="float32",
                   choices=("float32", "float64"),
                   help="build the model under this precision policy "
                        "(default: float32, the training configuration)")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.set_defaults(func=_cmd_check_model)

    p = sub.add_parser(
        "lint",
        help="run the repo lint rules (dtype policy, gradcheck coverage, "
             "optimizer out= contract, mutable defaults)")
    p.add_argument("path", nargs="*",
                   help="files or directories (default: src/repro)")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "check-concurrency",
        help="whole-program lock-discipline analysis over the threaded "
             "serving/training stack (lock-order cycles, guarded-field "
             "violations, fork-while-locked)")
    p.add_argument("path", nargs="*",
                   help="files or directories (default: the configured "
                        "concurrency-paths)")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.set_defaults(func=_cmd_check_concurrency)

    return parser


def main(argv=None):
    """CLI entry point; returns the process exit code.

    Operational failures surface as one-line ``error:`` messages on
    stderr with a non-zero exit code — never a traceback: corrupt or
    missing checkpoints exit 1, invalid configuration values exit 2,
    diverged training exits 3, interruption exits 130.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CheckpointCorruptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParallelWorkerError as exc:
        print(f"error: {exc}\nhint: rerun with --workers 0 to reproduce "
              "single-process, or --detect-anomaly to localise a NaN/Inf",
              file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"error: {exc}\nhint: retry with --sentinel skip_batch or "
              "--sentinel rollback, or localise the op with --detect-anomaly",
              file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
