"""The request pipeline a planning server and a cluster router share.

A plan is a pure query (the speed functions and ``n`` fix the
allocation), so answering it from a local shard pool and forwarding it
to a replica node are one pipeline with two backends.  :class:`FrontEnd`
is that pipeline: :meth:`FrontEnd.handle` parses one decoded frame,
opens its trace, awaits the subclass's answer, builds the envelope,
observes the latency histogram (trace id as exemplar), files the trace
with the flight recorder and counts the response — and never raises.

A subclass (:class:`~repro.serve.service.PlanningService`,
:class:`~repro.cluster.router.RouterService`) sets ``prefix`` (metric
families ``{prefix}.requests`` / ``.request.seconds{op}`` /
``.responses{status}`` and root spans ``{prefix}.{op}``) and
``traced_ops``, implements :meth:`FrontEnd._serve` (and, for ops
answered before parsing, ``admin_ops`` + :meth:`FrontEnd._admin`), and
provides the ``start`` / ``drain`` / ``health`` / ``stats`` that
:class:`~repro.serve.server.PlanServer` calls.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Any, Mapping

from .. import obs
from ..obs.context import TraceContext
from ..obs.flight import FlightRecorder, RequestTrace
from ..obs.sink import FleetTelemetrySink
from ..obs.spans import Span
from .protocol import (
    PlanManyRequest,
    PlanRequest,
    ProtocolError,
    error_code_for,
    error_response,
    ok_response,
    parse_request,
)

__all__ = ["FrontEnd", "FrontEndConfig"]

logger = logging.getLogger(__name__)

#: Ops every front-end times (``invalid``: frames that never parsed).
_TIMED_OPS = ("plan", "plan_many", "register_fleet", "observe", "health", "stats",
              "invalid")


@dataclass(frozen=True)
class FrontEndConfig:
    """Listener and tracing knobs shared by every front-end.

    Attributes
    ----------
    host / port / http_port:
        Listener addresses for :class:`~repro.serve.server.PlanServer`
        (``port=0`` picks an ephemeral port; ``http_port=None`` disables
        the HTTP listener).
    tracing:
        Per-request distributed tracing (independent of the global
        :func:`repro.obs.enable` switch): every traced request gets a
        trace id, a span tree, a latency exemplar, and a flight-recorder
        entry.  Off, requests are counted as *sampled* and only
        client-supplied trace ids are echoed.
    flight_capacity / flight_retain / flight_slow_k:
        Flight-recorder bounds: recent-trace ring size, always-retain
        (error/shed/deadline) store cap, and top-K-slowest store size.
    """

    host: str = "127.0.0.1"
    port: int = 0
    http_port: int | None = None
    tracing: bool = True
    flight_capacity: int = 256
    flight_retain: int = 1024
    flight_slow_k: int = 16


class FrontEnd:
    """The shared request pipeline (see module notes).

    ``sink``, when given, receives the end-to-end latency of every ok
    ``plan`` with ``n >= 1``
    (:meth:`~repro.obs.sink.FleetTelemetrySink.observe_solve`).
    """

    prefix = ""
    traced_ops: frozenset[str] = frozenset({"plan", "plan_many"})
    #: Answered by :meth:`_admin` from the raw frame: timed, never traced.
    admin_ops: frozenset[str] = frozenset()

    def __init__(
        self, config: FrontEndConfig, *, sink: FleetTelemetrySink | None = None
    ):
        self._config = config
        self._sink = sink
        self._draining = False
        self._tracing = bool(config.tracing)
        # The recorder exists even with tracing off, so the /debug/traces
        # route and the stats shape stay stable (the recorder then only
        # counts sampled-away requests).
        self._recorder = FlightRecorder(
            config.flight_capacity,
            retain_capacity=config.flight_retain,
            slow_k=config.flight_slow_k,
        )
        registry = obs.get_registry()
        self._requests = registry.counter(
            f"{self.prefix}.requests", help="requests received, all operations"
        )
        ops = _TIMED_OPS + (("admin",) if self.admin_ops else ())
        self._latency = {
            op: registry.histogram(
                f"{self.prefix}.request.seconds",
                labels={"op": op},
                help="front-end latency per request, by operation",
            )
            for op in ops
        }
        self._responses = {
            ok: registry.counter(
                f"{self.prefix}.responses",
                labels={"status": "ok" if ok else "error"},
                help="responses by status",
            )
            for ok in (True, False)
        }

    @property
    def config(self) -> FrontEndConfig:
        return self._config

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def recorder(self) -> FlightRecorder:
        """The flight recorder holding recently completed request traces."""
        return self._recorder

    # -- subclass hooks -------------------------------------------------
    async def _serve(
        self, request: Any, ctx: TraceContext | None, root: Span | None
    ) -> dict:
        """The ok ``result`` of one parsed request; refusals raise
        :class:`ProtocolError`.  ``ctx`` / ``root`` are the request's trace
        identity and root span (``root`` is ``None`` when not traced)."""
        raise NotImplementedError

    async def _admin(self, raw: Mapping) -> dict:
        """The ok ``result`` of one ``admin_ops`` frame."""
        raise NotImplementedError

    # -- tracing --------------------------------------------------------
    def _open_trace(self, request: Any) -> tuple[TraceContext | None, Span | None]:
        """The request's own trace identity and listener-side root span.

        A client-supplied context stays the trace's identity (its span
        becomes our parent); otherwise a fresh trace is started.  With
        tracing off, no span is built — the request is counted as
        sampled and a client trace id is merely echoed.
        """
        client = getattr(request, "trace", None)
        if not self._tracing:
            self._recorder.note_sampled()
            return client, None
        ctx = client.child() if client is not None else TraceContext.new()
        if isinstance(request, PlanRequest):
            attrs = {"n": request.n}
        elif isinstance(request, PlanManyRequest):
            attrs = {"count": len(request.ns)}
        else:
            attrs = {"count": len(request.observations)}
        root = Span(
            name=f"{self.prefix}.{request.op}",
            attrs=attrs,
            trace_id=ctx.trace_id,
            span_id=ctx.span_id,
            parent_id=ctx.parent_id or "",
            started=time.time(),
        )
        return ctx, root

    def _close_trace(
        self,
        root: Span,
        op: str,
        status: str,
        fleet: str,
        n: int | None,
        started_wall: float,
        seconds: float,
    ) -> None:
        """Finish the request's root span and file it with the recorder."""
        root.seconds = seconds
        if status != "ok":
            root.status = "error"
            root.attrs["code"] = status
        self._recorder.record(
            RequestTrace(
                trace_id=root.trace_id,
                op=op,
                status=status,
                fleet=fleet,
                n=n,
                started=started_wall,
                seconds=seconds,
                root=root,
            )
        )
        # n=0 is a valid plan but not an observable size: the sink's
        # records, which also guard wire input, require a positive one.
        if self._sink is not None and status == "ok" and n is not None and n >= 1:
            self._sink.observe_solve(fleet, n=n, seconds=seconds)

    # -- the pipeline ---------------------------------------------------
    async def handle(self, raw: Any) -> dict:
        """One decoded frame in, one response dict out (never raises)."""
        self._requests.inc()
        is_mapping = isinstance(raw, Mapping)
        req_id = raw.get("id") if is_mapping else None
        started = time.perf_counter()
        started_wall = time.time()
        op, status, fleet, size = "invalid", "ok", "", None
        trace_id: str | None = None
        root: Span | None = None
        try:
            raw_op = raw.get("op") if is_mapping and self.admin_ops else None
            if isinstance(raw_op, str) and raw_op in self.admin_ops:
                op = "admin"
                result = await self._admin(raw)
            else:
                request = parse_request(raw)
                op = request.op
                ctx = None
                if op in self.traced_ops:
                    fleet, size = request.fleet, getattr(request, "n", None)
                    ctx, root = self._open_trace(request)
                    trace_id = ctx.trace_id if ctx is not None else None
                result = await self._serve(request, ctx, root)
                if op == "plan_many":
                    # The envelope stays ok (each item carries its own
                    # verdict); the recorder files the worst item code so
                    # shed/expired batches land in the always-retain store.
                    bad = next(
                        (it for it in result["results"] if not it.get("ok", False)),
                        None,
                    )
                    if bad is not None:
                        status = bad.get("code", "internal")
            response = ok_response(req_id, result, trace_id=trace_id)
        except ProtocolError as exc:
            status = exc.code
            response = error_response(req_id, exc.code, str(exc), trace_id=trace_id)
        except Exception as exc:  # noqa: BLE001 - the envelope must not leak
            logger.exception("%s request handling failed", self.prefix)
            status = error_code_for(exc)
            response = error_response(req_id, status, str(exc), trace_id=trace_id)
        elapsed = time.perf_counter() - started
        if obs.is_enabled() or root is not None:
            self._latency[op if op in self._latency else "invalid"].observe(
                elapsed, exemplar=trace_id
            )
        if root is not None:
            self._close_trace(root, op, status, fleet, size, started_wall, elapsed)
        self._responses[response["ok"]].inc()
        return response
