"""Tests for the command-line interface and dataset I/O."""

import numpy as np
import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.data import load_dataset
from repro.data.io import load_dataset_file, save_dataset


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info_parses(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "nyc-bike"])
        assert args.scale == "tiny"
        assert args.out is None

    def test_simulate_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "chicago"])

    def test_train_profile_ops_flag(self):
        args = build_parser().parse_args(["train", "MUSE-Net", "--profile-ops"])
        assert args.profile_ops is True
        assert build_parser().parse_args(["train", "MUSE-Net"]).profile_ops is False

    def test_experiment_profile_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table2", "--profile", "gpu"])

    def test_train_sentinel_choices(self):
        args = build_parser().parse_args(
            ["train", "MUSE-Net", "--sentinel", "rollback"])
        assert args.sentinel == "rollback"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["train", "MUSE-Net", "--sentinel", "explode"])

    def test_train_resume_and_checkpoint_flags(self):
        args = build_parser().parse_args(
            ["train", "MUSE-Net", "--checkpoint-dir", "runs/x",
             "--checkpoint-every", "2", "--resume"])
        assert args.checkpoint_dir == "runs/x"
        assert args.checkpoint_every == 2
        assert args.resume is True

    def test_evaluate_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "MUSE-Net"])

    def test_all_experiments_registered(self):
        expected = ({f"table{i}" for i in range(1, 7)}
                    | {f"fig{i}" for i in range(4, 10)}
                    | {"fig1", "fig2"})
        assert set(EXPERIMENTS) == expected


class TestCommands:
    def test_info_exit_code(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "MUSE-Net" in out
        assert "nyc-bike" in out

    def test_simulate_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "city.npz"
        assert main(["simulate", "nyc-bike", "--scale", "tiny",
                     "--out", str(out_file)]) == 0
        assert out_file.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "ARIMA"],
        ["evaluate", "ARIMA", "--checkpoint", "does-not-exist.npz"],
        ["serve", "ARIMA"],
    ], ids=["train", "evaluate", "serve"])
    def test_unknown_method_exit_code(self, argv, capsys):
        assert main(argv) == 2
        assert "unknown method 'ARIMA'" in capsys.readouterr().err

    def test_experiment_unknown_name_exit_code(self, capsys):
        assert main(["experiment", "table99"]) == 2

    def test_complexity_prints_table(self, capsys):
        assert main(["complexity"]) == 0
        out = capsys.readouterr().out
        assert "MUSE-Net" in out
        assert "GMAN" in out

    def test_parallel_profiled_fit_prints_one_parallel_line(self, capsys):
        assert main(["train", "RNN", "--workers", "2",
                     "--profile-ops"]) == 0
        lines = capsys.readouterr().out.splitlines()
        parallel = [line for line in lines if line.startswith("parallel:")]
        assert len(parallel) == 1
        assert any(line.startswith("optimizer:") for line in lines)


class TestOperationalErrors:
    """Operational failures exit non-zero with one-line messages."""

    def test_evaluate_missing_checkpoint_exits_1(self, capsys):
        assert main(["evaluate", "MUSE-Net",
                     "--checkpoint", "does-not-exist.npz"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "does-not-exist" in err
        assert "Traceback" not in err

    def test_evaluate_corrupt_checkpoint_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"this is not a zip archive")
        assert main(["evaluate", "MUSE-Net", "--checkpoint", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "corrupt" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["evaluate", "serve"])
    def test_empty_directory_exits_1(self, command, tmp_path, capsys):
        assert main([command, "MUSE-Net", "--checkpoint",
                     str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "train with --checkpoint-dir" in err

    def test_invalid_config_value_exits_2(self, capsys):
        # checkpoint cadence without a directory is a config error.
        assert main(["train", "MUSE-Net", "--checkpoint-every", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "checkpoint_dir" in err
        assert "Traceback" not in err

    def test_resume_without_dir_exits_2(self, capsys):
        assert main(["train", "MUSE-Net", "--resume"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_invalid_dtype_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["train", "MUSE-Net", "--dtype", "float16"])


class TestServeCommand:
    def test_serve_parses_defaults(self):
        args = build_parser().parse_args(["serve", "MUSE-Net"])
        assert args.command == "serve"
        assert args.checkpoint is None
        assert args.requests == 64
        assert args.concurrency == 8
        assert args.max_batch == 32
        assert args.replicas == 0

    def test_serve_replays_traffic_and_gates_correctness(self, capsys):
        assert main(["serve", "MUSE-Net", "--requests", "12",
                     "--concurrency", "3", "--max-batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "12 requests" in out
        assert "p99" in out
        assert "served == offline predict_scaled" in out

    def test_serve_json_snapshot(self, capsys):
        import json

        assert main(["serve", "MUSE-Net", "--requests", "6",
                     "--concurrency", "2", "--format", "json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["requests"] == 6
        assert snap["max_abs_error_vs_offline"] <= 1e-6
        assert snap["latency_ms"]["p50"] >= 0

    def test_serve_missing_checkpoint_exits_1(self, capsys):
        assert main(["serve", "MUSE-Net",
                     "--checkpoint", "does-not-exist.npz"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_serve_corrupt_checkpoint_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"this is not a zip archive")
        assert main(["serve", "MUSE-Net", "--checkpoint", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "corrupt" in err

    def test_serve_bad_config_exits_2(self, capsys):
        assert main(["serve", "MUSE-Net", "--max-batch", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert main(["serve", "MUSE-Net", "--requests", "0"]) == 2

    def test_serve_installed_checkpoint_drives_forecasts(self, tmp_path,
                                                         capsys):
        # Train briefly, checkpoint, then serve from the archive: the
        # hot-install path must run (generation 1) and still match the
        # offline evaluation of the *installed* weights.
        assert main(["train", "MUSE-Net", "--checkpoint-dir", str(tmp_path),
                     "--checkpoint-every", "1"]) == 0
        capsys.readouterr()
        assert main(["serve", "MUSE-Net", "--checkpoint", str(tmp_path),
                     "--requests", "6", "--concurrency", "2"]) == 0
        out = capsys.readouterr().out
        assert "generation 1" in out
        assert "served == offline predict_scaled" in out


class TestStreamCommand:
    def test_stream_parses_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.command == "stream"
        assert args.scenario == "clean"
        assert args.epochs == 8
        assert args.frozen is False
        assert args.format == "text"

    def test_stream_unknown_scenario_exits_2(self, capsys):
        assert main(["stream", "--scenario", "meteor"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unknown scenario" in err

    def test_stream_clean_enforces_the_identity_gate(self, capsys):
        assert main(["stream", "--scenario", "clean", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "stream scenario 'clean'" in out
        assert "clean stream == offline predict_scaled: max|err| 0" in out
        assert "sources: model=80" in out

    def test_stream_corrupt_json_reports_fault_telemetry(self, capsys):
        import json

        assert main(["stream", "--scenario", "corrupt", "--frozen",
                     "--epochs", "1", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        counts = report["telemetry"]["ingest"]["counts"]
        assert counts["quarantined"] == 5
        assert counts["gaps"] == 5
        assert report["ticks_forecast"] > 0


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        dataset = load_dataset("nyc-bike", scale="tiny")
        path = tmp_path / "bike.npz"
        save_dataset(dataset, path)
        loaded = load_dataset_file(path)
        assert loaded.name == dataset.name
        assert loaded.scale == dataset.scale
        assert loaded.grid == dataset.grid
        np.testing.assert_allclose(loaded.flows, dataset.flows)
        assert loaded.periodicity.len_trend == dataset.periodicity.len_trend

    def test_version_check(self, tmp_path):
        dataset = load_dataset("nyc-bike", scale="tiny")
        path = tmp_path / "bike.npz"
        save_dataset(dataset, path)
        data = dict(np.load(path))
        data["format_version"] = np.array(99)
        np.savez(path, **data)
        with pytest.raises(ValueError):
            load_dataset_file(path)

    def test_loaded_dataset_flows_are_writable(self, tmp_path):
        dataset = load_dataset("nyc-bike", scale="tiny")
        path = tmp_path / "bike.npz"
        save_dataset(dataset, path)
        loaded = load_dataset_file(path)
        loaded.flows[0] = 0.0  # must not raise (copy, not mmap view)
