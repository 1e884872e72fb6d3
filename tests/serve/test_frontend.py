"""Socket front-end: wire framing, op parity, backpressure, drain."""

import contextlib
import socket
import struct

import numpy as np
import pytest

from repro.serve import (ForecastClient, ForecastServer, ServeConfig,
                         SocketFrontend)
from repro.serve import wire
from repro.serve.frontend import RequestError, ServerBusy
from repro.serve.wire import FrameError

from tests.serve.conftest import TinyForecaster


@contextlib.contextmanager
def serving_frontend(data, *, queries="test", address=("127.0.0.1", 0),
                     **frontend_kwargs):
    """Started streaming server + bound front-end; tears both down."""
    flows = data.scaler.transform(data.dataset.flows)
    server = ForecastServer(
        TinyForecaster(data), ServeConfig(max_wait_ms=0.5),
        periodicity=data.periodicity, frame_shape=flows.shape[1:])
    server.start()
    for frame in flows[:data.periodicity.min_index]:
        server.cache.push(frame)
    batch = data.test if queries == "test" else queries
    frontend = SocketFrontend(server, address, queries=batch,
                              **frontend_kwargs)
    try:
        frontend.start()
        yield server, frontend, flows
    finally:
        frontend.close()
        server.close()


class TestWire:
    def test_frame_round_trip_over_a_socketpair(self):
        left, right = socket.socketpair()
        try:
            payload = {"op": "ping", "nested": [1, 2.5, None, "x"]}
            wire.send_frame(left, payload)
            assert wire.recv_frame(right) == payload
            left.close()
            assert wire.recv_frame(right) is None  # clean EOF
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize("dtype", ["float32", "float64", "int64"])
    def test_array_payload_is_bit_exact(self, dtype):
        rng = np.random.default_rng(3)
        array = (rng.standard_normal((2, 3, 4)) * 1e3).astype(dtype)
        rebuilt = wire.payload_array(wire.array_payload(array))
        assert rebuilt.dtype == array.dtype
        assert rebuilt.shape == array.shape
        assert np.array_equal(rebuilt.view(np.uint8), array.view(np.uint8))

    def test_malformed_array_payload_raises(self):
        with pytest.raises(FrameError, match="malformed array payload"):
            wire.payload_array({"shape": [2], "data": [1.0, 2.0]})

    def test_oversized_outgoing_frame_is_rejected(self):
        with pytest.raises(FrameError, match="exceeds"):
            wire.encode_frame({"blob": "x" * 128}, max_frame_bytes=64)

    def test_oversized_incoming_header_is_rejected_before_allocation(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", 2**31))
            with pytest.raises(FrameError, match="exceeds"):
                wire.recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_truncated_frame_raises(self):
        left, right = socket.socketpair()
        try:
            frame = wire.encode_frame({"op": "ping"})
            left.sendall(frame[:len(frame) - 3])
            left.close()
            with pytest.raises(FrameError, match="closed"):
                wire.recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_parse_and_format_address(self):
        assert wire.parse_address("127.0.0.1:8191") == ("127.0.0.1", 8191)
        assert wire.parse_address("[::1]:80") == ("[::1]", 80)
        assert wire.parse_address("unix:/tmp/fc.sock") == "/tmp/fc.sock"
        assert wire.parse_address(("localhost", "9")) == ("localhost", 9)
        assert wire.format_address(("127.0.0.1", 8191)) == "127.0.0.1:8191"
        assert wire.format_address("/tmp/fc.sock") == "unix:/tmp/fc.sock"
        for bad in ("no-port", ":123", "host:notaport", "unix:"):
            with pytest.raises(ValueError):
                wire.parse_address(bad)

    def test_frontend_rejects_bad_limits(self, tiny_data, tiny_model):
        server = ForecastServer(tiny_model, ServeConfig(max_wait_ms=0.5))
        with pytest.raises(ValueError, match="max_connections"):
            SocketFrontend(server, max_connections=0)
        with pytest.raises(ValueError, match="backlog"):
            SocketFrontend(server, backlog=0)


class TestSocketOps:
    def test_ping_and_ephemeral_port(self, tiny_data):
        with serving_frontend(tiny_data) as (_server, frontend, _flows):
            host, port = frontend.address
            assert host == "127.0.0.1" and port != 0
            with ForecastClient(frontend.address) as client:
                assert client.ping("hello")["pong"] == "hello"

    def test_query_matches_in_process_forecast_bitwise(self, tiny_data):
        with serving_frontend(tiny_data) as (server, frontend, _flows):
            with ForecastClient(frontend.address) as client:
                for i in (0, len(tiny_data.test) - 1):
                    rows = client.query(i)
                    reference = server.forecast(
                        tiny_data.test.slice(i, i + 1))
                    assert np.array_equal(rows, reference)

    def test_query_index_out_of_range(self, tiny_data):
        with serving_frontend(tiny_data) as (_server, frontend, _flows):
            with ForecastClient(frontend.address) as client:
                with pytest.raises(RequestError, match="outside") as info:
                    client.query(len(tiny_data.test))
                assert info.value.code == "bad-request"

    def test_query_without_a_replay_batch(self, tiny_data):
        with serving_frontend(tiny_data, queries=None) as (
                _server, frontend, _flows):
            with ForecastClient(frontend.address) as client:
                with pytest.raises(RequestError) as info:
                    client.query(0)
                assert info.value.code == "no-queries"

    def test_forecast_matches_in_process_bitwise(self, tiny_data):
        with serving_frontend(tiny_data) as (server, frontend, _flows):
            with ForecastClient(frontend.address) as client:
                prediction, index, generation = client.forecast()
                local, local_index, local_gen, _imputed = \
                    server.forecast_tick()
                assert (index, generation) == (local_index, local_gen)
                assert np.array_equal(prediction, local)

    def test_forecast_cells_slice_the_same_grid(self, tiny_data):
        with serving_frontend(tiny_data) as (_server, frontend, _flows):
            with ForecastClient(frontend.address) as client:
                grid, index, _gen = client.forecast()
                cells = [(0, 0), (grid.shape[1] - 1, grid.shape[2] - 1)]
                values, cell_index, _gen = client.forecast(cells=cells)
                assert cell_index == index
                assert values.shape == (len(cells), grid.shape[0])
                for k, (row, col) in enumerate(cells):
                    assert np.array_equal(values[k], grid[:, row, col])

    def test_push_and_push_gap_advance_the_stream(self, tiny_data):
        with serving_frontend(tiny_data) as (server, frontend, flows):
            with ForecastClient(frontend.address) as client:
                _pred, index, _gen = client.forecast()
                count = client.push(flows[index])
                assert count == server.cache.count
                _pred, index2, _gen = client.forecast()
                assert index2 == index + 1
                client.push_gap()
                _pred, index3, _gen = client.forecast()
                assert index3 == index2 + 1

    def test_stats_include_frontend_telemetry(self, tiny_data):
        with serving_frontend(tiny_data) as (_server, frontend, _flows):
            with ForecastClient(frontend.address) as client:
                client.forecast()
                snap = client.stats()
                assert snap["frontend"]["connections"] == 1
                assert snap["frontend"]["requests"] >= 2
                assert snap["frontend"]["address"] == wire.format_address(
                    frontend.address)
                assert snap["result_cache"]["misses"] >= 1

    def test_unknown_op_is_reported_not_fatal(self, tiny_data):
        with serving_frontend(tiny_data) as (_server, frontend, _flows):
            with ForecastClient(frontend.address) as client:
                with pytest.raises(RequestError, match="unknown op") as info:
                    client.request({"op": "explode"})
                assert info.value.code == "unknown-op"
                # The connection survives an unknown op.
                assert client.ping("still-here")["pong"] == "still-here"

    def test_non_object_frame_is_reported(self, tiny_data):
        with serving_frontend(tiny_data) as (_server, frontend, _flows):
            sock = wire.connect(frontend.address)
            try:
                wire.send_frame(sock, ["not", "a", "dict"])
                reply = wire.recv_frame(sock)
                assert reply == {"ok": False, "error": "bad-request",
                                 "message": "frame must be a JSON object"}
            finally:
                sock.close()

    def test_oversized_frame_gets_a_bad_frame_reply(self, tiny_data):
        with serving_frontend(tiny_data) as (_server, frontend, _flows):
            sock = wire.connect(frontend.address)
            try:
                sock.sendall(struct.pack(">I", 2**31))
                reply = wire.recv_frame(sock)
                assert reply["error"] == "bad-frame"
                assert wire.recv_frame(sock) is None  # then a clean close
            finally:
                sock.close()

    def test_busy_backpressure_at_the_connection_limit(self, tiny_data):
        with serving_frontend(tiny_data, max_connections=1) as (
                _server, frontend, _flows):
            with ForecastClient(frontend.address) as first:
                assert first.ping()["ok"]
                second = ForecastClient(frontend.address)
                try:
                    with pytest.raises(ServerBusy, match="retry later"):
                        second.ping()
                finally:
                    second.close()
                assert frontend.snapshot()["rejected_busy"] == 1
                # The admitted connection keeps working.
                assert first.ping("again")["pong"] == "again"

    def test_shutdown_op_signals_wait_for_shutdown(self, tiny_data):
        with serving_frontend(tiny_data) as (_server, frontend, _flows):
            assert not frontend.wait_for_shutdown(timeout=0)
            with ForecastClient(frontend.address) as client:
                reply = client.shutdown()
                assert reply["closing"]
            assert frontend.wait_for_shutdown(timeout=5.0)

    def test_graceful_drain_closes_idle_clients_cleanly(self, tiny_data):
        with serving_frontend(tiny_data) as (_server, frontend, _flows):
            client = ForecastClient(frontend.address)
            try:
                assert client.ping()["ok"]
                frontend.close()
                # The idle connection observes a clean close, never a
                # torn frame: the next request fails loudly.
                with pytest.raises((RequestError, OSError, FrameError)):
                    client.ping()
            finally:
                client.close()

    def test_unix_socket_round_trip(self, tiny_data, tmp_path):
        path = str(tmp_path / "forecast.sock")
        with serving_frontend(tiny_data, address=f"unix:{path}") as (
                server, frontend, _flows):
            assert frontend.address == path
            with ForecastClient(f"unix:{path}") as client:
                rows = client.query(0)
                reference = server.forecast(tiny_data.test.slice(0, 1))
                assert np.array_equal(rows, reference)
        import os
        assert not os.path.exists(path)  # close() unlinked the socket

    def test_double_start_rejected_and_close_is_idempotent(self, tiny_data):
        with serving_frontend(tiny_data) as (_server, frontend, _flows):
            with pytest.raises(RuntimeError, match="already started"):
                frontend.start()
        frontend.close()  # second close is a no-op
