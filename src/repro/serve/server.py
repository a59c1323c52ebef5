"""Asyncio front-ends: NDJSON-over-TCP, and a minimal HTTP/1.1 listener.

The TCP listener speaks the newline-delimited JSON protocol of
:mod:`repro.serve.protocol`.  Frames on one connection are handled
*concurrently* — a client may pipeline many requests without waiting —
which is what lets a single connection feed the service's micro-batcher.
Responses carry the request's ``id``, so ordering is the client's
problem (and the client in :mod:`repro.serve.client` solves it with an
id → future map).

The optional HTTP listener exists for operability, stdlib-only:

* ``GET /metrics`` — the process registry in Prometheus text format via
  the existing :func:`repro.obs.to_prometheus` exporter.  Scrapers that
  negotiate ``application/openmetrics-text`` via the ``Accept`` header
  get the OpenMetrics dialect instead — latency exemplars on histogram
  buckets and the mandatory ``# EOF`` terminator;
* ``GET /health`` / ``GET /stats`` — the service's JSON summaries;
* ``GET /debug/traces`` — flight-recorder trace summaries
  (``?errors=1`` / ``?slow=1`` / ``?limit=N`` filters), and
  ``GET /debug/traces?id=<trace_id>`` for one full span tree;
* ``POST /v1/rpc`` — one protocol request per POST body.

:func:`start_in_thread` boots a whole server (service, shard pool and
listeners) on a private event loop in a daemon thread and returns a
:class:`ServerHandle` — the entry point used by tests, the ``repro
serve`` CLI, ``make serve-smoke`` and the throughput benchmark.  The
cluster router boots through the same :func:`run_in_thread` body.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
from typing import Any, Callable, Mapping
from urllib.parse import parse_qs, urlsplit

from .. import obs
from .frontend import FrontEnd
from .protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_response,
)
from .service import PlanningService, ServeConfig

__all__ = ["PlanServer", "ServerHandle", "start_in_thread"]

logger = logging.getLogger(__name__)


class PlanServer:
    """The listeners wrapped around one front-end service.

    The service is a :class:`~repro.serve.frontend.FrontEnd` — a
    :class:`PlanningService` or a cluster router — and its ``config``
    holds the listener addresses.
    """

    def __init__(self, service: FrontEnd):
        self._service = service
        self._config = service.config
        self._tcp_server: asyncio.AbstractServer | None = None
        self._http_server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._request_tasks: set[asyncio.Task] = set()
        self._stopped = False

    # -- addresses ------------------------------------------------------
    @property
    def host(self) -> str:
        return self._config.host

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` to the real one)."""
        if self._tcp_server is None or not self._tcp_server.sockets:
            raise RuntimeError("the server is not listening")
        return self._tcp_server.sockets[0].getsockname()[1]

    @property
    def http_port(self) -> int | None:
        if self._http_server is None or not self._http_server.sockets:
            return None
        return self._http_server.sockets[0].getsockname()[1]

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        await self._service.start()
        self._tcp_server = await asyncio.start_server(
            self._handle_tcp,
            self._config.host,
            self._config.port,
            limit=MAX_FRAME_BYTES,
        )
        if self._config.http_port is not None:
            self._http_server = await asyncio.start_server(
                self._handle_http,
                self._config.host,
                self._config.http_port,
                limit=MAX_FRAME_BYTES,
            )
        logger.info(
            "serve listening",
            extra={"host": self.host, "port": self.port, "http": self.http_port},
        )

    async def stop(self, *, drain: bool = True) -> None:
        """Stop listening, then drain (or abandon) in-flight work.

        With ``drain=True`` every request already read off a socket gets
        its response written before connections close; the shard pool
        then finishes its queued jobs and exits.
        """
        if self._stopped:
            return
        self._stopped = True
        # close() alone stops the accept loop; wait_closed() must come
        # *after* the drain — on 3.12+ it waits for connection handlers,
        # and those can't finish until drained responses are written.
        for server in (self._tcp_server, self._http_server):
            if server is not None:
                server.close()
        if drain:
            await self._service.drain()
            if self._request_tasks:
                await asyncio.gather(
                    *list(self._request_tasks), return_exceptions=True
                )
        else:
            await self._service.drain()  # still refuses new work; pool drains fast
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        for server in (self._tcp_server, self._http_server):
            if server is not None:
                await server.wait_closed()
        logger.info("serve stopped")

    # -- TCP ------------------------------------------------------------
    async def _handle_tcp(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        write_lock = asyncio.Lock()
        local_requests: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    response = error_response(
                        None, "invalid_request",
                        f"frame exceeds {MAX_FRAME_BYTES} bytes",
                    )
                    async with write_lock:
                        writer.write(encode_frame(response))
                        await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                req_task = asyncio.ensure_future(
                    self._respond(line, writer, write_lock)
                )
                local_requests.add(req_task)
                self._request_tasks.add(req_task)
                req_task.add_done_callback(local_requests.discard)
                req_task.add_done_callback(self._request_tasks.discard)
            if local_requests:
                await asyncio.gather(*list(local_requests), return_exceptions=True)
        except asyncio.CancelledError:
            pass
        except ConnectionError:  # pragma: no cover - client vanished mid-read
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):  # pragma: no cover
                pass

    async def _respond(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        try:
            raw = decode_frame(line)
        except ProtocolError as exc:
            response = error_response(None, exc.code, str(exc))
        else:
            response = await self._service.handle(raw)
        try:
            async with write_lock:
                writer.write(encode_frame(response))
                await writer.drain()
        except ConnectionError:  # pragma: no cover - client vanished mid-write
            pass

    # -- HTTP -----------------------------------------------------------
    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if not parts:
                return  # client connected and hung up without a request
            if len(parts) < 2:
                doc = error_response(
                    None, "invalid_request", "malformed HTTP request line"
                )
                payload = json.dumps(doc).encode("utf-8")
                writer.write(
                    b"HTTP/1.1 400 Bad Request\r\n"
                    b"Content-Type: application/json; charset=utf-8\r\n"
                    + f"Content-Length: {len(payload)}\r\n".encode("latin-1")
                    + b"Connection: close\r\n\r\n" + payload
                )
                await writer.drain()
                return
            method, path = parts[0].upper(), parts[1]
            headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            try:
                length = int(headers.get("content-length", "0") or "0")
            except ValueError:
                length = -1
            if 0 <= length <= MAX_FRAME_BYTES:
                body = await reader.readexactly(length) if length else b""
                status, content_type, payload = await self._route_http(
                    method, path, body, headers
                )
            else:
                doc = error_response(
                    None, "invalid_request",
                    f"content-length must be an integer in [0, {MAX_FRAME_BYTES}]",
                )
                status = "400 Bad Request"
                content_type = "application/json; charset=utf-8"
                payload = json.dumps(doc).encode("utf-8")
            head = (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
        except (asyncio.CancelledError, asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):  # pragma: no cover
                pass

    async def _route_http(
        self, method: str, path: str, body: bytes,
        headers: Mapping[str, str] | None = None,
    ) -> tuple[str, str, bytes]:
        json_type = "application/json; charset=utf-8"
        headers = headers or {}
        split = urlsplit(path)
        path = split.path
        query = parse_qs(split.query)
        if method == "GET" and path == "/metrics":
            # Exemplars and the # EOF terminator are only legal in the
            # OpenMetrics dialect, so emit them only when the scraper
            # asked for it.
            accept = headers.get("accept", "")
            openmetrics = "application/openmetrics-text" in accept
            text = obs.to_prometheus(openmetrics=openmetrics)
            content_type = (
                obs.OPENMETRICS_CONTENT_TYPE if openmetrics
                else obs.PROMETHEUS_CONTENT_TYPE
            )
            return ("200 OK", content_type, text.encode("utf-8"))
        if method == "GET" and path == "/debug/traces":
            return self._route_traces(query, json_type)
        if method == "GET" and path == "/health":
            doc = self._service.health()
            status = "200 OK" if doc["status"] == "ok" else "503 Service Unavailable"
            return (status, json_type, json.dumps(doc).encode("utf-8"))
        if method == "GET" and path == "/stats":
            doc = await self._service.stats()
            return ("200 OK", json_type, json.dumps(doc).encode("utf-8"))
        if method == "POST" and path == "/v1/rpc":
            try:
                raw = decode_frame(body)
            except ProtocolError as exc:
                doc = error_response(None, exc.code, str(exc))
                return ("400 Bad Request", json_type, json.dumps(doc).encode("utf-8"))
            doc = await self._service.handle(raw)
            status = "200 OK" if doc["ok"] else "400 Bad Request"
            if not doc["ok"] and doc["error"]["code"] == "overloaded":
                status = "503 Service Unavailable"
            return (status, json_type, json.dumps(doc).encode("utf-8"))
        doc = {"error": f"no route for {method} {path}"}
        return ("404 Not Found", json_type, json.dumps(doc).encode("utf-8"))

    def _route_traces(
        self, query: Mapping[str, list], json_type: str
    ) -> tuple[str, str, bytes]:
        """The flight-recorder debug endpoint (summaries or one detail)."""
        recorder = self._service.recorder
        trace_id = (query.get("id") or [None])[0]
        if trace_id:
            trace = recorder.get(trace_id)
            if trace is None:
                doc = {"error": f"no retained trace with id {trace_id!r}"}
                return ("404 Not Found", json_type, json.dumps(doc).encode("utf-8"))
            return ("200 OK", json_type, json.dumps(trace.to_dict()).encode("utf-8"))
        try:
            limit = int((query.get("limit") or ["50"])[0])
        except ValueError:
            limit = 50
        errors_only = (query.get("errors") or ["0"])[0] not in ("0", "", "false")
        slow_only = (query.get("slow") or ["0"])[0] not in ("0", "", "false")
        traces = recorder.traces(
            errors_only=errors_only, slow_only=slow_only, limit=max(0, limit)
        )
        doc = {
            "traces": [t.summary() for t in traces],
            "stats": recorder.stats(),
        }
        return ("200 OK", json_type, json.dumps(doc).encode("utf-8"))


class ServerHandle:
    """A server running on its own event loop in a daemon thread.

    Thread-safe façade for the owning thread of tests/benchmarks: talk to
    the server over sockets (the normal path), or run service coroutines
    on its loop via :meth:`call`.
    """

    def __init__(self, thread, loop, server, service, stop):
        self._thread = thread
        self._loop: asyncio.AbstractEventLoop = loop
        self._server: PlanServer = server
        self._service: FrontEnd = service
        # Resolved (on the loop) with the drain flag the runner stops with.
        self._stop: asyncio.Future = stop
        self.host = server.host
        self.port = server.port
        self.http_port = server.http_port

    @property
    def service(self) -> FrontEnd:
        return self._service

    def call(self, coro, *, timeout: float = 60.0) -> Any:
        """Run a coroutine on the server's loop and wait for its result."""
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout=timeout)

    def stop(self, *, drain: bool = True, timeout: float = 60.0) -> None:
        """Graceful (or abrupt) shutdown; joins the server thread."""
        if self._thread.is_alive():
            def _signal() -> None:
                if not self._stop.done():
                    self._stop.set_result(drain)

            self._loop.call_soon_threadsafe(_signal)
            self._thread.join(timeout=timeout)
        if self._thread.is_alive():  # pragma: no cover - drain hang
            raise RuntimeError("server thread did not stop in time")

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(
    config: ServeConfig | None = None, *, timeout: float = 60.0
) -> ServerHandle:
    """Boot a full planning server on a background thread.

    Blocks until the listeners are bound (so ``handle.port`` is final)
    and returns the :class:`ServerHandle`.  Startup failures — a taken
    port, a bad config — re-raise in the calling thread.
    """
    config = config or ServeConfig()
    return run_in_thread(
        lambda: PlanningService(config), name="repro-serve", timeout=timeout
    )


def run_in_thread(
    make_service: Callable[[], FrontEnd], *, name: str, timeout: float = 60.0
) -> ServerHandle:
    """Boot ``make_service()`` behind a :class:`PlanServer` on a thread.

    The service is built and started on a private event loop in a daemon
    thread named ``name``; the call returns once the listeners are bound,
    and startup failures re-raise in the calling thread.
    """
    started = threading.Event()
    state: dict[str, Any] = {}

    async def _amain() -> None:
        service = make_service()
        server = PlanServer(service)
        try:
            await server.start()
        except BaseException as exc:
            state["error"] = exc
            started.set()
            raise
        loop = asyncio.get_running_loop()
        stop = loop.create_future()
        state.update(loop=loop, server=server, service=service, stop=stop)
        started.set()
        await server.stop(drain=await stop)

    def _runner() -> None:
        try:
            asyncio.run(_amain())
        except BaseException as exc:  # noqa: BLE001 - surfaced via state
            state.setdefault("error", exc)
            started.set()

    thread = threading.Thread(target=_runner, name=name, daemon=True)
    thread.start()
    if not started.wait(timeout=timeout):  # pragma: no cover - hung startup
        raise RuntimeError(f"the {name} thread did not start in time")
    if "error" in state:
        raise state["error"]
    return ServerHandle(
        thread, state["loop"], state["server"], state["service"], state["stop"]
    )
