"""StreamRuntime integration: ladder, staleness, masking, hot swap.

Small geometry (2x2 grid, min_index 8) so every test runs a real model
through the real server without the simulate-scale warmup cost.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core import MuseConfig, MUSENet
from repro.data import MinMaxScaler, MultiPeriodicity, build_samples
from repro.stream import (
    AdaptationConfig,
    StreamConfig,
    StreamIngestor,
    StreamRuntime,
    Tick,
)
from repro.stream import adapt as adapt_mod
from repro.stream import runtime as runtime_mod
from repro.training import Trainer

SHAPE = (2, 2, 2)
SAMPLES_PER_DAY = 4


def make_periodicity():
    # min_index = max(2, 1*4, 1*8) = 8
    return MultiPeriodicity(2, 1, 1, samples_per_day=SAMPLES_PER_DAY,
                            trend_lag=8)


def make_model(seed=0):
    p = make_periodicity()
    return MUSENet(MuseConfig(
        len_closeness=p.len_closeness, len_period=p.len_period,
        len_trend=p.len_trend, height=2, width=2, rep_channels=4,
        latent_interactive=8, res_blocks=1, plus_channels=2,
        decoder_hidden=8, gen_weight=0.05, seed=seed))


def make_flows(ticks, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 10.0, size=(ticks,) + SHAPE)


def make_runtime(flows_warm, config=None, model_factory=None,
                 checkpoint_dir=None, seed=0):
    scaler = MinMaxScaler((-0.9, 0.9)).fit(flows_warm)
    runtime = StreamRuntime(
        make_model(seed), scaler, make_periodicity(), SHAPE,
        SAMPLES_PER_DAY, config=config, model_factory=model_factory,
        checkpoint_dir=checkpoint_dir)
    runtime.warm_start(flows_warm)
    return runtime


def live_tick(flows, index):
    return Tick(index=index, frame=flows[index])


def in_order(runtime):
    """Swap in a watermark-1 ingestor: a skipped index is a gap at once."""
    runtime.ingestor = StreamIngestor(
        SHAPE, watermark=1, start_index=runtime.ingestor.next_index)
    return runtime


class TestCleanStreamIdentity:
    def test_live_forecasts_match_offline_pipeline_bitwise(self):
        # The tentpole contract: on a clean stream the runtime's model
        # answers equal build_samples -> predict_scaled exactly.
        flows = make_flows(32)
        warm = 20
        runtime = make_runtime(flows[:warm])
        trainer = Trainer(runtime.server.model)
        scaled = runtime.scaler.transform(flows)
        with runtime:
            for index in range(warm, len(flows)):
                result = runtime.forecast()
                assert result.index == index
                assert result.source == "model"
                assert result.imputed == {"closeness": 0, "period": 0,
                                          "trend": 0}
                offline = runtime.scaler.inverse_transform(np.asarray(
                    trainer.predict_scaled(
                        build_samples(scaled, runtime.periodicity,
                                      [index])))[0])
                assert np.array_equal(result.flows, offline)
                runtime.ingest(live_tick(flows, index))

    def test_concurrent_forecasts_match_offline_bitwise(self):
        # Client threads forecast while the main thread ingests: every
        # model answer must come from one tick's windows and equal the
        # offline forward at its own index, bitwise.
        flows = make_flows(40)
        warm = 20
        runtime = make_runtime(flows[:warm],
                               config=StreamConfig(auto_adapt=False))
        trainer = Trainer(runtime.server.model)
        scaled = runtime.scaler.transform(flows)
        answers = []
        start = threading.Barrier(4)

        def client():
            start.wait()
            for _ in range(25):
                answers.append(runtime.forecast())
                # A repeat at one tick is a memo hit costing
                # microseconds; pace the clients like the ingest so
                # their answers span several ticks.
                time.sleep(0.001)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-push
        try:
            with runtime:
                clients = [threading.Thread(target=client)
                           for _ in range(3)]
                for thread in clients:
                    thread.start()
                start.wait()
                for index in range(warm, len(flows) - 1):
                    runtime.ingest(live_tick(flows, index))
                    time.sleep(0.002)
                for thread in clients:
                    thread.join(60.0)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(answers) == 75
        assert all(result.source == "model" for result in answers)
        offline = {}
        for result in answers:
            if result.index not in offline:
                offline[result.index] = runtime.scaler.inverse_transform(
                    np.asarray(trainer.predict_scaled(build_samples(
                        scaled, runtime.periodicity, [result.index])))[0])
            assert np.array_equal(result.flows, offline[result.index]), (
                result.index)
        assert len(offline) > 1  # the answers span several ticks


class TestDegradationLadder:
    def test_ladder_walks_zeros_persistence_climatology(self):
        p = make_periodicity()
        flows = make_flows(16)
        scaler = MinMaxScaler((-0.9, 0.9)).fit(flows)
        runtime = StreamRuntime(make_model(), scaler, p, SHAPE,
                                SAMPLES_PER_DAY)
        with runtime:
            # Nothing observed: the bottom rung answers.
            result = runtime.forecast()
            assert (result.source, result.index) == ("zeros", 0)
            assert "warmup" in result.reason
            assert not result.flows.any()
            # One tick: persistence (slot 1 has no climatology yet).
            runtime.ingest(live_tick(flows, 0))
            result = runtime.forecast()
            assert result.source == "persistence"
            assert np.array_equal(result.flows, flows[0])
            # A full day observed: climatology takes over.
            for index in range(1, SAMPLES_PER_DAY + 1):
                runtime.ingest(live_tick(flows, index))
            result = runtime.forecast()
            assert result.source == "historical_average"
            assert result.degraded

    def test_gap_fill_alone_is_not_an_observation(self):
        # Persistence answers from the cache's last frame only once a
        # frame was observed: a gap before any tick fills zeros, and
        # the bottom rung reports them as such.
        flows = make_flows(4)
        runtime = StreamRuntime(
            make_model(), MinMaxScaler((-0.9, 0.9)).fit(flows),
            make_periodicity(), SHAPE, SAMPLES_PER_DAY)
        with runtime:
            runtime.server.push_gap()
            result = runtime.forecast()
            assert (result.source, result.index) == ("zeros", 1)

    def test_degraded_flag_routes_to_ladder_and_back(self):
        flows = make_flows(24)
        runtime = make_runtime(flows[:20])
        with runtime:
            assert runtime.forecast().source == "model"
            runtime.mark_degraded("maintenance window")
            result = runtime.forecast()
            assert result.source == "historical_average"
            assert result.reason == "maintenance window"
            runtime.clear_degraded()
            assert runtime.forecast().source == "model"

    def test_staleness_ticks_counted_in_telemetry(self):
        flows = make_flows(32)
        runtime = make_runtime(flows[:20])
        with runtime:
            # Warm-start does not age the weights.
            assert runtime.server.staleness_ticks == 0
            for index in range(20, 25):
                runtime.ingest(live_tick(flows, index))
            result = runtime.forecast()
            assert result.staleness == 5
            assert runtime.server.snapshot()["staleness_ticks"] == 5


class TestFaultHandling:
    def test_nan_cells_are_masked_with_last_known_values(self):
        flows = make_flows(24)
        runtime = make_runtime(flows[:20])
        with runtime:
            frame = flows[20].copy()
            frame[0, 1, 1] = np.nan
            frame[1, 0, 0] = np.nan
            runtime.ingest(Tick(index=20, frame=frame))
            assert runtime.masked_cells == 2
            filled = runtime.server.cache.last_frame
            assert filled[0, 1, 1] == flows[19][0, 1, 1]
            assert filled[1, 0, 0] == flows[19][1, 0, 0]
            assert filled[0, 0, 0] == flows[20][0, 0, 0]

    def test_gap_advances_clock_and_flags_windows(self):
        flows = make_flows(32)
        runtime = in_order(make_runtime(flows[:20]))
        with runtime:
            # 20 never arrives; 21 forces the gap declaration.
            applied = runtime.ingest(live_tick(flows, 21))
            assert applied == [("gap", 20), ("tick", 21)]
            assert runtime.server.cache.gap_count == 1
            result = runtime.forecast()
            assert result.source == "model"
            assert result.index == 22
            # The filled interval 20 sits at lag 2, inside L_c = 2.
            assert result.imputed["closeness"] == 1

    def test_imputed_counts_come_from_the_forecast_window(self):
        # A gap lands between the forecast's sample and its answer, as
        # a concurrent ingest would: the answer must carry the counts
        # of its own window (index 20), not those of index 21.
        flows = make_flows(24)
        runtime = make_runtime(flows[:20])
        model = runtime.server.model
        predict = model.predict
        calls = []

        def predict_then_ingest(batch):
            if not calls:
                runtime.server.push_gap()
            calls.append(batch)
            return predict(batch)

        model.predict = predict_then_ingest
        with runtime:
            result = runtime.forecast()
        assert (result.source, result.index) == ("model", 20)
        assert result.imputed == {"closeness": 0, "period": 0, "trend": 0}
        assert runtime.server.cache.snapshot()["imputed"] == {
            "closeness": 1, "period": 0, "trend": 0}

    def test_quarantined_tick_changes_nothing(self):
        flows = make_flows(24)
        runtime = make_runtime(flows[:20])
        with runtime:
            before = runtime.server.cache.count
            assert runtime.ingest(
                Tick(index=20, frame=np.full(SHAPE, np.inf))) == []
            assert runtime.server.cache.count == before
            assert runtime.ingestor.counts["quarantined"] == 1


class TestAdaptation:
    CONFIG = StreamConfig(adaptation=AdaptationConfig(step_budget=4))

    @pytest.fixture(autouse=True)
    def lenient_gate(self):
        # A 4-step candidate need not beat the serving model; these
        # tests pin the swap path, not the gate.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(adapt_mod, "GATE_FACTOR", 50.0)
            yield

    def _adaptive_runtime(self, tmp_path, flows_warm):
        return make_runtime(
            flows_warm, config=self.CONFIG, model_factory=make_model,
            checkpoint_dir=str(tmp_path))

    def test_swap_failure_leaves_server_answering(self, tmp_path,
                                                  monkeypatch):
        # Retraining succeeds but the checkpoint read during the hot
        # swap explodes: the failure is recorded, the server stays
        # degraded, and forecasts keep flowing from the ladder.
        flows = make_flows(32)
        runtime = self._adaptive_runtime(tmp_path, flows[:24])
        with runtime:
            import repro.serve.server as server_mod

            def broken_read(path):
                raise RuntimeError("checkpoint store unreachable")

            monkeypatch.setattr(server_mod, "read_weights", broken_read)
            assert runtime.adapt() is False
            assert runtime.retrains == 0
            assert any("hot swap failed" in f
                       for f in runtime.retrain_failures)
            assert "retrain failed" in runtime.degraded
            result = runtime.forecast()
            assert result.degraded and result.source == "historical_average"
            assert runtime.server.generation == 0
            # The store recovers: the retry swaps and serving resumes.
            monkeypatch.undo()
            assert runtime.adapt() is True
            assert runtime.retrains == 1
            assert runtime.degraded is None
            assert runtime.server.generation == 1
            assert runtime.forecast().source == "model"
            telemetry = runtime.snapshot()
        # Both attempts are timed, the failed one included.
        assert (telemetry["retrains"]
                + len(telemetry["retrain_failures"])) == 2
        assert telemetry["retrain_s"] > 0.0

    def test_failed_retrain_widens_the_scaler_for_the_next_answer(
            self, tmp_path, monkeypatch):
        # A retrain that fails its gate has already widened the scaler
        # in place, with the weights (and so the generation) unchanged.
        # The next model answer at the same tick must be scaled with
        # the bounds it is inverted with, as the offline pipeline is,
        # not be the answer memoized before the widening.
        flows = make_flows(32)
        flows[24:] += 30.0  # the stream leaves the warm-up range
        runtime = make_runtime(
            flows[:24], config=StreamConfig(
                auto_adapt=False,
                adaptation=AdaptationConfig(step_budget=2)),
            model_factory=make_model, checkpoint_dir=str(tmp_path))
        monkeypatch.setattr(adapt_mod, "GATE_FACTOR", 1e-9)
        with runtime:
            for index in range(24, 28):
                runtime.ingest(live_tick(flows, index))
            before = runtime.forecast()
            assert runtime.adapt() is False
            runtime.clear_degraded()
            after = runtime.forecast()
        assert (after.index, after.generation) == (before.index, 0)
        scaled = runtime.scaler.transform(flows)
        offline = runtime.scaler.inverse_transform(np.asarray(
            Trainer(runtime.server.model).predict_scaled(build_samples(
                scaled, runtime.periodicity, [after.index])))[0])
        assert np.array_equal(after.flows, offline)

    def test_swap_resets_staleness_clock(self, tmp_path):
        flows = make_flows(40)
        runtime = self._adaptive_runtime(tmp_path, flows[:24])
        with runtime:
            for index in range(24, 30):
                runtime.ingest(live_tick(flows, index))
            assert runtime.server.staleness_ticks == 6
            assert runtime.adapt() is True
            assert runtime.server.staleness_ticks == 0

    def test_retrain_divergence_is_contained(self, tmp_path, monkeypatch):
        # A diverging fit raises inside the trainer; adapt() must
        # convert it into a recorded failure, never a crash.
        flows = make_flows(32)
        runtime = self._adaptive_runtime(tmp_path, flows[:24])
        with runtime:
            import repro.stream.runtime as runtime_mod

            def exploding_retrain(*args, **kwargs):
                from repro.stream.adapt import AdaptationError
                raise AdaptationError("warm retrain diverged: boom")

            monkeypatch.setattr(runtime_mod, "warm_retrain",
                                exploding_retrain)
            assert runtime.adapt() is False
            assert any("diverged" in f for f in runtime.retrain_failures)
            assert runtime.forecast().degraded

    def test_missing_factory_is_a_recorded_failure(self, tmp_path):
        flows = make_flows(32)
        runtime = make_runtime(flows[:24], config=self.CONFIG)
        with runtime:
            assert runtime.adapt() is False
            assert any("model_factory" in f
                       for f in runtime.retrain_failures)

    def test_failure_log_is_bounded(self, tmp_path):
        from repro.stream.runtime import _MAX_FAILURE_RECORDS
        flows = make_flows(32)
        runtime = make_runtime(flows[:24], config=self.CONFIG)
        with runtime:
            for _ in range(_MAX_FAILURE_RECORDS + 5):
                runtime.adapt()
            assert len(runtime.retrain_failures) == _MAX_FAILURE_RECORDS


class TestLifecycle:
    def test_warm_start_after_ingest_raises(self):
        flows = make_flows(24)
        runtime = make_runtime(flows[:20])
        with runtime:
            runtime.ingest(live_tick(flows, 20))
            with pytest.raises(RuntimeError, match="warm_start"):
                runtime.warm_start(flows[:20])

    def test_telemetry_is_json_able_and_complete(self):
        import json
        flows = make_flows(24)
        runtime = make_runtime(flows[:20])
        with runtime:
            runtime.ingest(live_tick(flows, 20))
            t = runtime.snapshot()
        json.dumps(t)
        for key in ("ingest", "drift", "drift_events", "degraded",
                    "serve", "history_len", "masked_cells",
                    "fallbacks", "retrains", "retrain_s",
                    "retrain_failures"):
            assert key in t
        assert t["serve"]["staleness_ticks"] == 1
        assert t["serve"]["cache"] == {
            "count": 21, "ready": True, "gap_count": 0,
            "imputed": {"closeness": 0, "period": 0, "trend": 0}}

    def test_telemetry_counts_every_stream_event(self, monkeypatch):
        flows = make_flows(32)
        runtime = in_order(make_runtime(
            flows[:20], config=StreamConfig(auto_adapt=False)))
        with runtime:
            monkeypatch.setattr(runtime.drift, "observe",
                                lambda error: "drift")
            assert runtime.forecast().source == "model"  # for tick 20
            runtime.ingest(live_tick(flows, 20))  # scored: drift
            runtime.ingest(live_tick(flows, 22))  # declares gap 21
            runtime.ingest(Tick(index=23, frame=np.full(SHAPE, np.inf)))
            runtime.mark_degraded("operator hold")
            runtime.forecast()
            t = runtime.snapshot()
        counts = t["ingest"]["counts"]
        assert counts["emitted"] + counts["gaps"] == 3  # ticks applied
        assert counts["gaps"] == 1
        assert counts["quarantined"] == 1
        assert t["drift_events"] == [20]
        assert sum(t["fallbacks"].values()) == 1

    def test_history_window_is_bounded(self, monkeypatch):
        flows = make_flows(40)
        monkeypatch.setattr(runtime_mod, "HISTORY", 16)
        runtime = make_runtime(flows[:20])
        with runtime:
            for index in range(20, 30):
                runtime.ingest(live_tick(flows, index))
            assert len(runtime.history) == 16

    def test_drift_log_keeps_the_newest_indices(self, monkeypatch):
        # 100 forced drifts on a stream that never adapts: the index log
        # keeps the newest 64, and the sentinel still counts every one.
        flows = make_flows(120)
        runtime = make_runtime(flows[:20],
                               config=StreamConfig(auto_adapt=False))

        def forced_drift(error):
            runtime.drift.drifts += 1  # what observe() does on "drift"
            return "drift"

        with runtime:
            monkeypatch.setattr(runtime.drift, "observe", forced_drift)
            for index in range(20, 120):
                assert runtime.forecast().source == "model"
                runtime.ingest(live_tick(flows, index))
            t = runtime.snapshot()
        assert runtime_mod._MAX_FAILURE_RECORDS == 64
        assert t["drift_events"] == list(range(56, 120))
        assert t["drift"]["drifts"] == 100
