"""Clients for the planning service, and the load-generating harness.

* :class:`ServeClient` — a blocking, one-request-at-a-time client over a
  single TCP connection.  The right tool for scripts, the CLI and the
  smoke target.
* :class:`AsyncServeClient` — an asyncio client that pipelines: requests
  are written as they come and responses are matched back by ``id``, so
  one connection can keep many requests in flight — which is exactly
  what feeds the server's micro-batcher.
* :func:`run_load` — the measurement harness behind
  ``benchmarks/bench_serve_throughput.py`` and ``make serve-smoke``:
  ``concurrency`` workers drain a shared size list through a handful of
  pipelined connections and the resulting :class:`LoadReport` carries
  sustained plans/sec plus p50/p99 latency and a per-error-code census.

Errors: the convenience methods raise :class:`ServeError` (carrying the
wire ``code``) for envelope-level failures; ``plan_many`` returns its
per-item verdicts untouched so callers can do partial-failure handling.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..exceptions import ReproError
from ..io import speed_function_to_dict
from .protocol import PROTOCOL_VERSION, decode_frame, encode_frame, plan_fields

__all__ = ["ServeError", "ServeClient", "AsyncServeClient", "LoadReport", "run_load"]


class ServeError(ReproError):
    """An error response from the planning service."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code


def _records(speed_functions: Sequence) -> list[dict]:
    """Accept speed-function objects or ready-made JSON records."""
    out = []
    for sf in speed_functions:
        out.append(dict(sf) if isinstance(sf, Mapping) else speed_function_to_dict(sf))
    return out


def _unwrap(response: Mapping) -> dict:
    if response.get("ok"):
        return response["result"]
    err = response.get("error") or {}
    raise ServeError(err.get("code", "internal"), err.get("message", "unknown error"))


class ServeClient:
    """Blocking NDJSON client (thread-safe; one request in flight)."""

    def __init__(self, host: str, port: int, *, timeout: float = 60.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("rb")
        self._seq = itertools.count(1)
        self._lock = threading.Lock()

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def call(self, op: str, **fields: Any) -> dict:
        """One raw protocol round-trip; returns the full response dict."""
        with self._lock:
            req_id = next(self._seq)
            frame = {"v": PROTOCOL_VERSION, "id": req_id, "op": op, **fields}
            self._sock.sendall(encode_frame(frame))
            line = self._reader.readline()
            if not line:
                raise ConnectionError("the server closed the connection")
            response = decode_frame(line)
        if response.get("id") not in (req_id, None):
            raise ServeError(
                "internal", f"response id {response.get('id')!r} != {req_id}"
            )
        return response

    # -- convenience ----------------------------------------------------
    def register_fleet(
        self,
        speed_functions: Sequence,
        *,
        name: str = "",
        algorithm: str = "bisection",
        options: Mapping | None = None,
        cache_size: int = 1024,
    ) -> dict:
        """Register a fleet; returns ``{fingerprint, p, capacity, ...}``."""
        return _unwrap(
            self.call(
                "register_fleet",
                name=name,
                speed_functions=_records(speed_functions),
                algorithm=algorithm,
                options=dict(options) if options else {},
                cache_size=cache_size,
            )
        )

    def plan(
        self,
        fingerprint: str,
        n: int,
        *,
        timeout_ms: float | None = None,
        allocation: bool = True,
        trace: Mapping | None = None,
        tenant: str = "",
        idempotency_key: str | None = None,
    ) -> dict:
        """One plan; returns the result item or raises :class:`ServeError`.

        ``trace`` is an optional client-supplied trace context
        (``{"trace_id": ..., "span_id": ...}``, e.g. from
        :meth:`repro.obs.TraceContext.to_dict`); the server threads it
        through its span tree and files the request under that id.
        ``tenant`` selects the server-side fair-queueing lane and quota
        bucket; ``idempotency_key`` makes retries of the same logical
        request return the original response without re-solving.
        """
        fields = plan_fields(
            fingerprint, n=n, timeout_ms=timeout_ms, allocation=allocation,
            trace=trace, tenant=tenant, idempotency_key=idempotency_key,
        )
        return _unwrap(self.call("plan", **fields))

    def plan_many(
        self,
        fingerprint: str,
        ns: Sequence[int],
        *,
        timeout_ms: float | None = None,
        allocation: bool = True,
        trace: Mapping | None = None,
        tenant: str = "",
        idempotency_key: str | None = None,
    ) -> list[dict]:
        """A batch; returns per-item verdicts (ok or error dicts)."""
        fields = plan_fields(
            fingerprint, ns=ns, timeout_ms=timeout_ms, allocation=allocation,
            trace=trace, tenant=tenant, idempotency_key=idempotency_key,
        )
        return _unwrap(self.call("plan_many", **fields))["results"]

    def observe(self, fingerprint: str, observations: Sequence) -> dict:
        """Report observed ``(machine, size, speed)`` step timings.

        Accepts :class:`repro.Observation` objects or ready-made wire
        dicts.  Returns ``{"accepted": k, "refit": None | {...}}`` — the
        ``refit`` document appears when this call tipped the server into
        re-fitting the fleet's speed model (see
        ``ServeConfig.online_refit``).
        """
        records = [
            o.to_wire() if hasattr(o, "to_wire") else dict(o) for o in observations
        ]
        return _unwrap(
            self.call("observe", fleet=fingerprint, observations=records)
        )

    def health(self) -> dict:
        return _unwrap(self.call("health"))

    def stats(self) -> dict:
        return _unwrap(self.call("stats"))


class AsyncServeClient:
    """Pipelining asyncio client: many requests in flight per connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._seq = itertools.count(1)
        self._pending: dict[Any, asyncio.Future] = {}
        self._read_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncServeClient":
        from .protocol import MAX_FRAME_BYTES

        reader, writer = await asyncio.open_connection(host, port, limit=MAX_FRAME_BYTES)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = decode_frame(line)
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("the server closed the connection")
                    )
            self._pending.clear()

    @property
    def connected(self) -> bool:
        """False once the server closed the connection (or we did).

        A dead connection's read loop has exited, so a request written
        now would never be answered — callers holding pooled clients
        check this to redial instead of parking a future forever.
        """
        return not self._read_task.done() and not self._writer.is_closing()

    async def call(self, op: str, **fields: Any) -> dict:
        if not self.connected:
            raise ConnectionError("the connection is closed")
        req_id = next(self._seq)
        frame = {"v": PROTOCOL_VERSION, "id": req_id, "op": op, **fields}
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[req_id] = future
        self._writer.write(encode_frame(frame))
        await self._writer.drain()
        return await future

    async def plan(
        self,
        fingerprint: str,
        n: int,
        *,
        timeout_ms: float | None = None,
        allocation: bool = True,
        trace: Mapping | None = None,
        tenant: str = "",
        idempotency_key: str | None = None,
    ) -> dict:
        fields = plan_fields(
            fingerprint, n=n, timeout_ms=timeout_ms, allocation=allocation,
            trace=trace, tenant=tenant, idempotency_key=idempotency_key,
        )
        return _unwrap(await self.call("plan", **fields))

    async def plan_many(
        self,
        fingerprint: str,
        ns: Sequence[int],
        *,
        allocation: bool = True,
        tenant: str = "",
        idempotency_key: str | None = None,
    ) -> list[dict]:
        fields = plan_fields(
            fingerprint, ns=ns, allocation=allocation,
            tenant=tenant, idempotency_key=idempotency_key,
        )
        return _unwrap(await self.call("plan_many", **fields))["results"]

    async def close(self) -> None:
        self._read_task.cancel()
        try:
            await self._read_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):  # pragma: no cover
            pass


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------


@dataclass
class LoadReport:
    """What a load run did, and how fast the service answered."""

    requests: int
    ok: int
    errors: dict[str, int] = field(default_factory=dict)
    duration_seconds: float = 0.0
    latencies_seconds: list[float] = field(default_factory=list)

    @property
    def error_count(self) -> int:
        return sum(self.errors.values())

    @property
    def plans_per_second(self) -> float:
        return self.ok / self.duration_seconds if self.duration_seconds > 0 else 0.0

    def latency_quantile(self, q: float) -> float:
        """The q-quantile of observed request latencies (0 when idle)."""
        if not self.latencies_seconds:
            return 0.0
        ordered = sorted(self.latencies_seconds)
        idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[idx]

    @property
    def p50(self) -> float:
        return self.latency_quantile(0.50)

    @property
    def p99(self) -> float:
        return self.latency_quantile(0.99)

    @property
    def mean_latency(self) -> float:
        if not self.latencies_seconds:
            return 0.0
        return statistics.fmean(self.latencies_seconds)

    def summary(self) -> str:
        errs = (
            " ".join(f"{code}={count}" for code, count in sorted(self.errors.items()))
            or "none"
        )
        return (
            f"{self.ok}/{self.requests} ok in {self.duration_seconds:.3f}s "
            f"({self.plans_per_second:.0f} plans/s), "
            f"p50={self.p50 * 1e3:.2f}ms p99={self.p99 * 1e3:.2f}ms, errors: {errs}"
        )


async def _run_load_async(
    host: str,
    port: int,
    fingerprint: str,
    sizes: Sequence[int],
    *,
    concurrency: int,
    connections: int,
    allocation: bool,
    timeout_ms: float | None,
    tenant: str,
) -> LoadReport:
    connections = max(1, min(connections, concurrency))
    clients = [
        await AsyncServeClient.connect(host, port) for _ in range(connections)
    ]
    report = LoadReport(requests=len(sizes), ok=0)
    queue: asyncio.Queue[int] = asyncio.Queue()
    for n in sizes:
        queue.put_nowait(int(n))

    async def worker(idx: int) -> None:
        client = clients[idx % len(clients)]
        while True:
            try:
                n = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            begin = time.perf_counter()
            fields = plan_fields(
                fingerprint, n=n, timeout_ms=timeout_ms, allocation=allocation,
                tenant=tenant,
            )
            response = await client.call("plan", **fields)
            report.latencies_seconds.append(time.perf_counter() - begin)
            if response.get("ok"):
                report.ok += 1
            else:
                code = (response.get("error") or {}).get("code", "internal")
                report.errors[code] = report.errors.get(code, 0) + 1

    started = time.perf_counter()
    try:
        await asyncio.gather(*(worker(i) for i in range(concurrency)))
    finally:
        report.duration_seconds = time.perf_counter() - started
        for client in clients:
            await client.close()
    return report


def run_load(
    host: str,
    port: int,
    fingerprint: str,
    sizes: Sequence[int],
    *,
    concurrency: int = 32,
    connections: int = 8,
    allocation: bool = False,
    timeout_ms: float | None = None,
    tenant: str = "",
) -> LoadReport:
    """Drive the service with ``concurrency`` workers; return the report.

    ``sizes`` is consumed exactly once (one ``plan`` request per entry)
    by workers multiplexed over ``connections`` pipelined TCP
    connections.  All requests carry ``tenant`` when set, so a
    multi-tenant scenario is just several ``run_load`` calls in threads.
    Runs its own event loop, so call it from ordinary synchronous code
    (benchmarks, ``make serve-smoke``).
    """
    return asyncio.run(
        _run_load_async(
            host,
            port,
            fingerprint,
            sizes,
            concurrency=concurrency,
            connections=connections,
            allocation=allocation,
            timeout_ms=timeout_ms,
            tenant=tenant,
        )
    )
