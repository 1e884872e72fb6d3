"""Asyncio socket front-end: network clients for a ForecastServer.

The serving core (:class:`~repro.serve.server.ForecastServer`) is a
threaded, in-process component.  :class:`SocketFrontend` puts it on
the network: an asyncio TCP or Unix-socket listener speaking the
length-prefixed JSON protocol of :mod:`repro.serve.wire`, bridging
each request from the event loop onto the threaded micro-batcher
through a bounded executor (``loop.run_in_executor``), so one slow
forward never blocks the loop from accepting, reading, or answering
other connections.

Design points:

- **Bounded admission.**  At most ``max_connections`` concurrent
  connections; one past the limit receives an explicit backpressure
  frame (``{"ok": false, "error": "busy", ...}``) and a clean close
  instead of an unexplained reset or an unbounded accept queue.  The
  TCP backlog is bounded the same way (``backlog``).
- **Request/reply discipline.**  Each connection is a sequential
  request/reply stream — the natural client is blocking
  (:class:`ForecastClient`); concurrency comes from opening more
  connections, mirroring how the micro-batcher coalesces them.
- **Graceful drain.**  ``close()`` stops accepting, lets in-flight
  requests finish (bounded by ``drain_timeout_s``), then closes idle
  connections and joins the loop thread.  A client blocked on a reply
  either receives it or observes a clean EOF, never a half-written
  frame (frames are written atomically per reply).

Wire operations (see ``docs/serving.md`` for the full table):

``ping``, ``stats``, ``query`` (index into the preloaded replay
batch), ``forecast`` (next-tick streaming forecast through the
generation-aware result cache, optional per-cell slicing), ``push`` /
``push_gap`` (advance the stream window), and ``shutdown`` (request a
server drain; the owner of the front-end decides to honour it via
:meth:`SocketFrontend.wait_for_shutdown`).
"""

from __future__ import annotations

import asyncio
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

from repro.inspect import sanitizer
from repro.serve import wire
from repro.serve.wire import FrameError

__all__ = ["SocketFrontend", "ForecastClient", "RequestError", "ServerBusy"]


class RequestError(RuntimeError):
    """The server answered a request with an error frame."""

    def __init__(self, code, message):
        super().__init__(f"[{code}] {message}")
        self.code = code


class ServerBusy(RequestError):
    """The server refused the connection at its admission limit."""


class SocketFrontend:
    """Socket listener bridging wire requests onto a ForecastServer.

    Parameters
    ----------
    server:
        A **started** :class:`~repro.serve.server.ForecastServer`.
    address:
        ``(host, port)`` for TCP (port 0 picks an ephemeral port,
        re-read from :attr:`address` after :meth:`start`) or a
        filesystem path string for a Unix socket.
    queries:
        Optional :class:`~repro.data.windows.SampleBatch` served by the
        ``query`` op (clients address samples by row index) — the
        replay workload of ``repro serve`` and the benchmark's socket
        arm.
    max_connections:
        Concurrent-connection cap; excess connections get an explicit
        ``busy`` backpressure frame and a clean close.
    backlog:
        Listen backlog handed to the OS (pending, not yet accepted).
    drain_timeout_s:
        How long :meth:`close` waits for in-flight requests.
    """

    def __init__(self, server, address=("127.0.0.1", 0), *, queries=None,
                 max_connections=32, backlog=16,
                 max_frame_bytes=wire.MAX_FRAME_BYTES, drain_timeout_s=5.0):
        if max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1; got {max_connections}")
        if backlog < 1:
            raise ValueError(f"backlog must be >= 1; got {backlog}")
        self._server = server
        self._requested_address = wire.parse_address(address)
        self._queries = queries
        self.max_connections = int(max_connections)
        self.backlog = int(backlog)
        self.max_frame_bytes = int(max_frame_bytes)
        self.drain_timeout_s = float(drain_timeout_s)
        #: Resolved listen address after start() — ``(host, port)`` or
        #: the Unix socket path.
        self.address = None
        self._loop = None
        self._listener = None
        self._thread = None
        self._executor = None
        self._started = False
        self._closed = False
        self._ready = threading.Event()
        self._startup_error = None
        self._shutdown_requested = threading.Event()
        # Counters (mutated on the loop thread only; GIL-atomic int
        # reads from snapshot()).
        self._connections = set()
        self._active = 0
        self._accepted = 0
        self._rejected = 0
        self._requests = 0
        self._errors = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Bind the listener and start the event-loop thread."""
        if self._started:
            raise RuntimeError("front-end already started")
        self._started = True
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_connections,
            thread_name_prefix="repro-serve-io")
        self._loop = asyncio.new_event_loop()
        self._thread = sanitizer.create_thread(
            target=self._run_loop, name="repro-serve-frontend", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):  # pragma: no cover - hang
            raise RuntimeError("front-end event loop failed to start")
        if self._startup_error is not None:
            self.close()
            raise self._startup_error
        return self

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def close(self):
        """Drain in-flight requests, stop the loop, join the thread."""
        if not self._started or self._closed:
            return
        self._closed = True
        self._shutdown_requested.set()
        if self._startup_error is None:
            try:
                self._loop.call_soon_threadsafe(self._begin_drain)
            except RuntimeError:  # pragma: no cover - loop already dead
                pass
        sanitizer.join_thread(self._thread,
                              timeout=self.drain_timeout_s + 10.0,
                              what="socket front-end event loop")
        self._executor.shutdown(wait=True)
        if isinstance(self.address, str):
            try:
                os.unlink(self.address)
            except OSError:
                pass

    def wait_for_shutdown(self, timeout=None):
        """Block until a client sent ``shutdown`` (or :meth:`close` ran).

        Returns True if shutdown was requested within ``timeout``.
        The caller still owns teardown: call :meth:`close` after this
        returns.
        """
        return self._shutdown_requested.wait(timeout)

    def snapshot(self):
        """JSON-able front-end counters."""
        return {
            "address": wire.format_address(self.address)
            if self.address is not None else None,
            "connections": len(self._connections),
            "max_connections": self.max_connections,
            "accepted": self._accepted,
            "rejected_busy": self._rejected,
            "requests": self._requests,
            "errors": self._errors,
        }

    # ------------------------------------------------------------------
    # Event-loop thread
    # ------------------------------------------------------------------
    def _run_loop(self):
        asyncio.set_event_loop(self._loop)
        try:
            self._listener = self._loop.run_until_complete(self._open())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            self._loop.close()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            try:
                self._loop.run_until_complete(
                    self._loop.shutdown_asyncgens())
            finally:
                self._loop.close()

    async def _open(self):
        address = self._requested_address
        if isinstance(address, str):
            # Stale socket files from a crashed predecessor would make
            # bind fail; a *live* predecessor holds the file open, and
            # unlinking only detaches the name, never the listener.
            try:
                os.unlink(address)
            except OSError:
                pass
            listener = await asyncio.start_unix_server(
                self._handle, path=address, backlog=self.backlog)
            self.address = address
        else:
            host, port = address
            listener = await asyncio.start_server(
                self._handle, host=host, port=port, backlog=self.backlog)
            self.address = listener.sockets[0].getsockname()[:2]
        return listener

    def _begin_drain(self):
        self._loop.create_task(self._drain())

    async def _drain(self):
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
        # Let in-flight dispatches finish (bounded), then close the
        # remaining (idle) connections so their handlers observe EOF.
        deadline = perf_counter() + self.drain_timeout_s
        while self._active > 0 and perf_counter() < deadline:
            await asyncio.sleep(0.02)
        for writer in list(self._connections):
            writer.close()
        settle = perf_counter() + 1.0
        while self._connections and perf_counter() < settle:
            await asyncio.sleep(0.02)
        self._loop.stop()

    # ------------------------------------------------------------------
    # Per-connection handler
    # ------------------------------------------------------------------
    async def _handle(self, reader, writer):
        if len(self._connections) >= self.max_connections:
            # Explicit backpressure: tell the client *why* before
            # closing, so it can back off instead of retrying blind.
            self._rejected += 1
            try:
                writer.write(wire.encode_frame({
                    "ok": False, "error": "busy",
                    "message": "connection limit reached; retry later",
                    "connections": len(self._connections),
                    "max_connections": self.max_connections,
                }))
                await writer.drain()
                writer.close()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            return
        self._accepted += 1
        self._connections.add(writer)
        try:
            while not self._closed:
                frame = await wire.read_frame_async(
                    reader, max_frame_bytes=self.max_frame_bytes)
                if frame is None:
                    break
                self._active += 1
                try:
                    response = await self._dispatch(frame)
                finally:
                    self._active -= 1
                writer.write(wire.encode_frame(
                    response, max_frame_bytes=self.max_frame_bytes))
                await writer.drain()
                if response.get("closing"):
                    break
        except FrameError as exc:
            self._errors += 1
            try:
                writer.write(wire.encode_frame({
                    "ok": False, "error": "bad-frame", "message": str(exc)}))
                await writer.drain()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _dispatch(self, frame):
        if not isinstance(frame, dict):
            return {"ok": False, "error": "bad-request",
                    "message": "frame must be a JSON object"}
        op = frame.get("op")
        handler = _OPS.get(op)
        if handler is None:
            return {"ok": False, "error": "unknown-op",
                    "message": f"unknown op {op!r}; expected one of "
                               f"{', '.join(sorted(_OPS))}"}
        self._requests += 1
        try:
            return await handler(self, frame)
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            self._errors += 1
            return {"ok": False, "error": "bad-request",
                    "message": f"{type(exc).__name__}: {exc}"}
        except Exception as exc:
            self._errors += 1
            return {"ok": False, "error": "server-error",
                    "message": f"{type(exc).__name__}: {exc}"}

    async def _blocking(self, fn, *args):
        return await self._loop.run_in_executor(self._executor, fn, *args)

    # -- ops ----------------------------------------------------------
    async def _op_ping(self, frame):
        return {"ok": True, "pong": frame.get("payload")}

    async def _op_stats(self, frame):
        snap = await self._blocking(self._server.snapshot)
        snap["frontend"] = self.snapshot()
        return {"ok": True, "stats": snap}

    async def _op_query(self, frame):
        if self._queries is None:
            return {"ok": False, "error": "no-queries",
                    "message": "this front-end serves no replay batch"}
        i = int(frame["i"])
        if not 0 <= i < len(self._queries):
            return {"ok": False, "error": "bad-request",
                    "message": f"query index {i} outside "
                               f"[0, {len(self._queries)})"}
        query = self._queries.slice(i, i + 1)
        rows = await self._blocking(self._server.forecast, query)
        return {"ok": True, "i": i, "rows": wire.array_payload(rows),
                "generation": self._server.generation}

    async def _op_forecast(self, frame):
        prediction, index, generation, _imputed = await self._blocking(
            self._server.forecast_tick)
        response = {"ok": True, "index": index, "generation": generation}
        cells = frame.get("cells")
        if cells is None:
            response["forecast"] = wire.array_payload(prediction)
        else:
            picked = np.stack([prediction[:, int(r), int(c)]
                               for r, c in cells])
            response["cells"] = [[int(r), int(c)] for r, c in cells]
            response["values"] = wire.array_payload(picked)
        return response

    async def _op_push(self, frame):
        tick = wire.payload_array(frame["frame"])
        count = await self._blocking(self._server.push_tick, tick)
        return {"ok": True, "count": count}

    async def _op_push_gap(self, frame):
        count = await self._blocking(self._server.push_gap)
        return {"ok": True, "count": count}

    async def _op_shutdown(self, frame):
        self._shutdown_requested.set()
        return {"ok": True, "closing": True}


_OPS = {
    "ping": SocketFrontend._op_ping,
    "stats": SocketFrontend._op_stats,
    "query": SocketFrontend._op_query,
    "forecast": SocketFrontend._op_forecast,
    "push": SocketFrontend._op_push,
    "push_gap": SocketFrontend._op_push_gap,
    "shutdown": SocketFrontend._op_shutdown,
}


class ForecastClient:
    """Blocking request/reply client for a :class:`SocketFrontend`.

    One instance owns one connection and is **not** thread-safe —
    concurrency comes from one client per thread, mirroring how the
    server batches across connections.

    Parameters
    ----------
    address:
        ``(host, port)``, a ``HOST:PORT`` string, or ``unix:PATH``.
    timeout:
        Per-operation socket timeout in seconds.
    wait_ready_s:
        Retry the initial connection for up to this long — covers the
        race of a client starting before the listener is bound (the CI
        smoke test does exactly that).
    """

    def __init__(self, address, timeout=30.0,
                 max_frame_bytes=wire.MAX_FRAME_BYTES, wait_ready_s=0.0):
        self.address = wire.parse_address(address)
        self.timeout = float(timeout)
        self.max_frame_bytes = int(max_frame_bytes)
        deadline = perf_counter() + float(wait_ready_s)
        while True:
            try:
                self._sock = wire.connect(self.address, timeout=self.timeout)
                break
            except OSError:
                if perf_counter() >= deadline:
                    raise
                import time
                time.sleep(0.05)
        self._closed = False

    # ------------------------------------------------------------------
    def request(self, payload):
        """One request/reply round trip; returns the reply frame.

        Raises :class:`ServerBusy` on an admission-limit reply, and
        :class:`RequestError` for any other error frame.
        """
        if self._closed:
            raise RuntimeError("client is closed")
        wire.send_frame(self._sock, payload,
                        max_frame_bytes=self.max_frame_bytes)
        reply = wire.recv_frame(self._sock,
                                max_frame_bytes=self.max_frame_bytes)
        if reply is None:
            raise RequestError("closed", "server closed the connection")
        if not reply.get("ok", False):
            code = reply.get("error", "error")
            message = reply.get("message", "")
            if code == "busy":
                raise ServerBusy(code, message)
            raise RequestError(code, message)
        return reply

    def ping(self, payload=None):
        return self.request({"op": "ping", "payload": payload})

    def stats(self):
        return self.request({"op": "stats"})["stats"]

    def query(self, i):
        """Forecast rows for replay sample ``i`` — ``(1, 2, H, W)``."""
        return wire.payload_array(
            self.request({"op": "query", "i": int(i)})["rows"])

    def forecast(self, cells=None):
        """Next-tick forecast: ``(prediction, index, generation)``.

        With ``cells=[(row, col), ...]`` the prediction is the
        ``(n_cells, 2)`` in/outflow slice of the shared full-grid
        forecast instead of the whole grid.
        """
        payload = {"op": "forecast"}
        if cells is not None:
            payload["cells"] = [[int(r), int(c)] for r, c in cells]
        reply = self.request(payload)
        key = "forecast" if cells is None else "values"
        return (wire.payload_array(reply[key]), int(reply["index"]),
                int(reply["generation"]))

    def push(self, frame):
        """Push one observed stream tick; returns the server's count."""
        return int(self.request(
            {"op": "push", "frame": wire.array_payload(frame)})["count"])

    def push_gap(self):
        """Record one unobserved interval; returns the server's count."""
        return int(self.request({"op": "push_gap"})["count"])

    def shutdown(self):
        """Ask the serving process to drain and exit."""
        return self.request({"op": "shutdown"})

    def close(self):
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False
