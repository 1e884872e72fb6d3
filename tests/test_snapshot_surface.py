"""One state read: every runtime component answers ``snapshot()``.

Each class below reports its state as a JSON-able dict under the same
name, so in-process callers, the wire ``stats`` op and the CLI read it
one way.  A second name for the same job (``telemetry()``,
``report()``, ``as_dict()``) makes every caller learn which class uses
which, so adding one must edit this file.  Analysis findings
(``repro.inspect``) keep ``report()`` and value records (``OpStats``,
``QuarantineRecord``) keep ``as_dict()``: they are results, not the
state of a running component.
"""

import json

import numpy as np
import pytest

from repro.compile import ForwardCompiler, StepCompiler
from repro.core import MuseConfig, MUSENet
from repro.data import MinMaxScaler, MultiPeriodicity
from repro.optim import Adam
from repro.parallel import ParallelEngine
from repro.profiling import OpProfiler
from repro.serve import (
    AutoScaler,
    ForecastCache,
    ForecastClient,
    ForecastServer,
    LatencyStats,
    ServeConfig,
    SocketFrontend,
    WindowCache,
)
from repro.stream import DriftSentinel, StreamIngestor, StreamRuntime, Tick
from repro.training import DivergenceSentinel

RUNTIME_CLASSES = (
    ForecastServer, LatencyStats, ForecastCache, AutoScaler, SocketFrontend,
    WindowCache, StreamIngestor, StreamRuntime, DriftSentinel,
    ParallelEngine, ForwardCompiler, StepCompiler, DivergenceSentinel,
    OpProfiler,
)

SHAPE = (2, 2, 2)


def make_periodicity():
    # min_index = max(2, 1*4, 1*8) = 8
    return MultiPeriodicity(2, 1, 1, samples_per_day=4, trend_lag=8)


def make_model():
    p = make_periodicity()
    return MUSENet(MuseConfig(
        len_closeness=p.len_closeness, len_period=p.len_period,
        len_trend=p.len_trend, height=2, width=2, rep_channels=4,
        latent_interactive=8, res_blocks=1, plus_channels=2,
        decoder_hidden=8, gen_weight=0.05, seed=0))


def make_flows(ticks):
    return np.random.default_rng(0).uniform(0.0, 10.0, (ticks,) + SHAPE)


def step_compiler():
    model = make_model()
    return StepCompiler(model, Adam(model.parameters()),
                        np.random.default_rng(0))


#: Components that build without a thread, a socket or a fork.  The
#: autoscaler's snapshot reads only its own policy state.
CHEAP = {
    "LatencyStats": LatencyStats,
    "ForecastCache": lambda: ForecastCache(4),
    "AutoScaler": lambda: AutoScaler(None, 1, 2),
    "WindowCache": lambda: WindowCache(make_periodicity(), SHAPE),
    "StreamIngestor": lambda: StreamIngestor(SHAPE),
    "DriftSentinel": DriftSentinel,
    "ForwardCompiler": lambda: ForwardCompiler(make_model()),
    "StepCompiler": step_compiler,
    "DivergenceSentinel": DivergenceSentinel,
    "OpProfiler": OpProfiler,
}


def test_fourteen_runtime_classes():
    assert len(set(RUNTIME_CLASSES)) == 14


@pytest.mark.parametrize("cls", RUNTIME_CLASSES, ids=lambda c: c.__name__)
def test_state_is_read_through_snapshot_only(cls):
    assert callable(getattr(cls, "snapshot", None))
    for name in ("telemetry", "report", "as_dict"):
        assert not hasattr(cls, name), f"{cls.__name__}.{name}"


@pytest.mark.parametrize("name", list(CHEAP))
def test_cheap_snapshots_are_json_able(name):
    snap = CHEAP[name]().snapshot()
    assert isinstance(snap, dict)
    json.dumps(snap)


def test_window_snapshot_reads_count_ready_gaps_and_imputed():
    p = make_periodicity()
    cache = WindowCache(p, SHAPE)
    assert cache.snapshot() == {"count": 0, "ready": False, "gap_count": 0,
                                "imputed": None}
    for frame in make_flows(p.min_index):
        cache.push(frame)
    cache.push_gap()  # interval 8: the newest closeness frame
    assert cache.snapshot() == {
        "count": 9, "ready": True, "gap_count": 1,
        "imputed": {"closeness": 1, "period": 0, "trend": 0}}


def test_started_server_nests_its_window_locally_and_over_the_wire():
    p = make_periodicity()
    server = ForecastServer(make_model(), ServeConfig(max_wait_ms=0.0),
                            periodicity=p, frame_shape=SHAPE)
    with server:
        for frame in make_flows(p.min_index):
            server.push_tick(frame)
        server.push_gap()
        server.forecast_tick()
        with SocketFrontend(server) as frontend:
            with ForecastClient(frontend.address) as client:
                wire = client.stats()
            front = frontend.snapshot()
        snap = server.snapshot()
    json.dumps(snap)
    json.dumps(front)
    assert snap["cache"] == server.cache.snapshot()
    assert snap["cache"]["count"] == 9 and snap["cache"]["gap_count"] == 1
    assert wire["cache"] == snap["cache"]
    assert wire["frontend"]["requests"] >= 1
    assert front["accepted"] == 1


def test_started_runtime_reads_its_window_under_serve():
    p = make_periodicity()
    flows = make_flows(p.min_index + 4)
    runtime = StreamRuntime(
        make_model(), MinMaxScaler((-0.9, 0.9)).fit(flows[:p.min_index]),
        p, SHAPE, samples_per_day=4)
    runtime.warm_start(flows[:p.min_index])
    with runtime:
        for index in range(p.min_index, len(flows)):
            assert runtime.forecast().source == "model"
            runtime.ingest(Tick(index=index, frame=flows[index]))
        snap = runtime.snapshot()
    json.dumps(snap)
    assert "cache" not in snap
    assert snap["serve"]["cache"] == runtime.server.cache.snapshot()
    assert snap["serve"]["cache"]["count"] == len(flows)
