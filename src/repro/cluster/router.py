"""The cluster router: protocol-v1 front-end over N planner nodes.

:class:`RouterService` is the :class:`~repro.serve.frontend.FrontEnd`
whose backend is a remote node set; the planning service is the same
front-end over a local shard pool.  Parsing, tracing, the envelope,
latency histograms, the flight recorder and response counters are the
shared pipeline, and the same :class:`~repro.serve.server.PlanServer`
(TCP framing, HTTP routes, ``/metrics``, ``/debug/traces``) wraps both.
What the router adds is where an answer comes from, plus the
``cluster_status`` / ``cluster_join`` / ``cluster_leave`` admin ops it
answers itself.

Routing: every data-path request names a fleet fingerprint, and the
fingerprint's replica set (primary first, then ring successors, via
:meth:`~repro.cluster.membership.ClusterMembership.replicas_for`) is
walked in order.  An attempt moves on to the next replica when the
node's circuit breaker is open, its bulkhead sheds locally, the
transport fails or times out, or the node answers with a *retryable*
code (``overloaded`` / ``shutting_down`` / ``unknown_fleet`` — the last
one self-heals: the router re-registers the fleet on that node in the
background).  Non-retryable answers (``infeasible``, ``throttled``, a
plan, ...) are returned as-is; plan requests are pure queries, so
walking replicas never double-executes anything observable.  Per-tenant
``tenant`` and ``idempotency_key`` fields forward verbatim, so quota
verdicts are made by the owning node and retried frames dedup there.

Responses are re-enveloped with the client's request id; when every
replica fails, the client gets the new typed ``unavailable`` code (or
the last retryable code seen, which is more specific — e.g. a cluster
that is uniformly ``overloaded`` says so).

Membership is live: :meth:`join` and :meth:`leave` rebalance the ring
with minimal fleet remapping and re-register exactly the moved fleets on
their new owners, while in-flight requests on a leaving node finish
before its link closes.  A background probe loop health-checks every
member, feeds the breakers, and re-syncs fleets onto nodes that come
back.
"""

from __future__ import annotations

import asyncio
import logging
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from .. import obs
from ..exceptions import ConfigurationError
from ..obs.context import TraceContext
from ..obs.spans import Span
from ..planner import Fleet
from ..serve.frontend import FrontEnd, FrontEndConfig
from ..serve.protocol import (
    HealthRequest,
    ObserveRequest,
    PlanRequest,
    ProtocolError,
    RegisterFleetRequest,
    StatsRequest,
    plan_fields,
    registration_info,
    speed_functions_from_fleet_spec,
)
from ..serve.server import ServerHandle, run_in_thread
from .breaker import CLOSED, BreakerConfig, CircuitBreaker
from .membership import ClusterMembership, NodeInfo
from .pool import NodeBusy, NodeLink, NodeUnavailable

__all__ = ["RouterConfig", "RouterService", "start_router_in_thread"]

logger = logging.getLogger(__name__)

#: Node answers that justify walking to the next replica.  All data-path
#: requests are pure (plans are deterministic queries; observations are
#: idempotent appends), so retrying on another node is always safe.
RETRYABLE_CODES = frozenset({"overloaded", "shutting_down", "unknown_fleet"})


@dataclass(frozen=True)
class RouterConfig(FrontEndConfig):
    """Tuning knobs for the cluster router (see ``docs/cluster.md``).

    The router's own listener addresses and its tracing and
    flight-recorder bounds (``host``, ``port``, ``http_port``,
    ``tracing``, ``flight_*``) are inherited from
    :class:`~repro.serve.frontend.FrontEndConfig`.

    Attributes
    ----------
    replication:
        Replica-set size N: each fleet is registered on its primary and
        the next N−1 distinct ring successors, and requests fall back
        across exactly that set.
    connections / max_concurrency / max_waiting:
        Per-node link bounds (see :class:`~repro.cluster.pool.NodeLink`):
        pooled pipelined connections, the bulkhead, and the bounded
        load-leveling queue in front of it.
    attempt_timeout:
        Seconds one forwarded attempt may take before the node is
        declared unavailable and the walk moves on.
    probe_interval:
        Seconds between background ``health`` probes per node (0
        disables probing — tests drive breakers directly).
    breaker:
        Per-node circuit-breaker thresholds.
    ring_replicas:
        Virtual points per node on the consistent-hash ring.
    """

    replication: int = 2
    connections: int = 2
    max_concurrency: int = 64
    max_waiting: int = 128
    attempt_timeout: float = 30.0
    probe_interval: float = 0.25
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    ring_replicas: int = 64

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise ConfigurationError(
                f"replication must be at least 1, got {self.replication!r}"
            )
        if self.attempt_timeout <= 0:
            raise ConfigurationError(
                f"attempt_timeout must be positive, got {self.attempt_timeout!r}"
            )


class RouterService(FrontEnd):
    """The routing service behind a cluster front-end (see module notes).

    Construct with the seed member nodes, then hand to
    :class:`~repro.serve.server.PlanServer` (or
    :func:`start_router_in_thread`) exactly like a
    :class:`~repro.serve.service.PlanningService`.
    """

    prefix = "cluster"
    role = "router"
    traced_ops = frozenset({"plan", "plan_many", "observe"})
    #: Admin operations the router answers itself (never forwarded; plain
    #: nodes reject them with ``unknown_op``, which is exactly right).
    admin_ops = frozenset({"cluster_status", "cluster_join", "cluster_leave"})

    def __init__(
        self, config: RouterConfig | None = None, nodes: Sequence[NodeInfo] = ()
    ):
        super().__init__(config or RouterConfig())
        self._membership = ClusterMembership(
            replication=self._config.replication,
            ring_replicas=self._config.ring_replicas,
        )
        self._seed_nodes = list(nodes)
        self._links: dict[str, NodeLink] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._down: set[str] = set()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._probe_task: asyncio.Task | None = None

        registry = obs.get_registry()
        self._route_primary = registry.counter(
            "cluster.route.primary",
            help="data-path requests answered by the fleet's primary node",
        )
        self._route_fallback = registry.counter(
            "cluster.route.fallback",
            help="data-path requests answered by a fallback replica",
        )
        self._route_unavailable = registry.counter(
            "cluster.route.unavailable",
            help="data-path requests no replica could answer",
        )
        self._shed = registry.counter(
            "cluster.shed",
            help="attempts shed locally by a node link's bulkhead/queue",
        )
        self._reshards = registry.counter(
            "cluster.reshards", help="membership changes applied (join+leave)"
        )
        self._nodes_gauge = registry.gauge(
            "cluster.nodes", help="current member node count"
        )

    # -- lifecycle -------------------------------------------------------
    @property
    def membership(self) -> ClusterMembership:
        return self._membership

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        for info in self._seed_nodes:
            await self._admit(info)
        if self._config.probe_interval > 0:
            self._probe_task = asyncio.ensure_future(self._probe_loop())
        logger.info(
            "cluster router started",
            extra={
                "nodes": len(self._membership),
                "replication": self._config.replication,
            },
        )

    async def _drain(self) -> None:
        """Let forwarded requests finish, then close links (FrontEnd hook)."""
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except asyncio.CancelledError:
                pass
        for link in self._links.values():
            await link.drain(timeout=self._config.attempt_timeout)
        for link in self._links.values():
            await link.close()
        logger.info("cluster router drained")

    # -- membership ------------------------------------------------------
    async def _admit(self, info: NodeInfo) -> dict:
        """Create the link/breaker for a node and sync its fleets."""
        report = self._membership.add(info)
        if info.node_id not in self._links:
            self._links[info.node_id] = NodeLink(
                info.host,
                info.port,
                connections=self._config.connections,
                max_concurrency=self._config.max_concurrency,
                max_waiting=self._config.max_waiting,
                attempt_timeout=self._config.attempt_timeout,
            )
            self._breakers[info.node_id] = CircuitBreaker(
                info.node_id, self._config.breaker
            )
        self._nodes_gauge.set(len(self._membership))
        synced = await self._sync_moved(report.moved)
        return {
            "node": info.to_dict(),
            "fleets_moved": report.fleets_moved,
            "registered": synced,
        }

    async def join(self, host: str, port: int, http_port: int | None = None) -> dict:
        """Add a member node; rebalance with minimal fleet remapping."""
        if self._draining:
            raise ProtocolError("shutting_down", "the router is draining")
        info = NodeInfo(host=host, port=int(port), http_port=http_port)
        if info.node_id in self._membership:
            return {"node": info.to_dict(), "fleets_moved": 0, "registered": 0,
                    "already_member": True}
        doc = await self._admit(info)
        self._reshards.inc()
        logger.info("node joined", extra={"node": info.node_id})
        return doc

    async def leave(self, node_id: str) -> dict:
        """Remove a member gracefully: reroute, re-register, then drain it.

        Order matters for the no-dropped-work contract: the node leaves
        the ring first (new requests route around it), the fleets it
        owned are re-registered on their new owners, and only then is
        its link drained of in-flight requests and closed.
        """
        if self._draining:
            raise ProtocolError("shutting_down", "the router is draining")
        if node_id not in self._membership:
            raise ProtocolError("invalid_request", f"unknown node {node_id!r}")
        report = self._membership.remove(node_id)
        self._nodes_gauge.set(len(self._membership))
        synced = await self._sync_moved(report.moved)
        link = self._links.pop(node_id, None)
        self._breakers.pop(node_id, None)
        self._down.discard(node_id)
        drained = True
        if link is not None:
            drained = await link.drain(timeout=self._config.attempt_timeout)
            await link.close()
        self._reshards.inc()
        logger.info(
            "node left",
            extra={"node": node_id, "fleets_moved": report.fleets_moved},
        )
        return {
            "node_id": node_id,
            "fleets_moved": report.fleets_moved,
            "registered": synced,
            "drained": drained,
        }

    async def _sync_moved(self, moved: Mapping[str, Sequence[str]]) -> int:
        """Re-register remapped fleets on the nodes that gained them."""
        synced = 0
        for fingerprint, gained in moved.items():
            spec = self._membership.fleet_spec(fingerprint)
            if spec is None:
                continue
            for node_id in gained:
                if await self._register_on(node_id, fingerprint, spec):
                    synced += 1
        return synced

    async def _register_on(self, node_id: str, fingerprint: str, spec: Mapping) -> bool:
        link = self._links.get(node_id)
        if link is None:
            return False
        fields = {
            "name": spec.get("name", ""),
            "speed_functions": list(spec["speed_functions"]),
            "algorithm": spec.get("algorithm", "bisection"),
            "options": {
                "mode": spec.get("mode", "tangent"),
                "refine": spec.get("refine", "greedy"),
            },
            "cache_size": int(spec.get("cache_size", 1024)),
        }
        breaker = self._breakers.get(node_id)
        try:
            resp = await link.request("register_fleet", fields)
        except (NodeBusy, NodeUnavailable) as exc:
            if breaker is not None and isinstance(exc, NodeUnavailable):
                breaker.record_failure()
            logger.warning(
                "fleet registration deferred",
                extra={"node": node_id, "fingerprint": fingerprint, "error": str(exc)},
            )
            return False
        if breaker is not None:
            breaker.record_success()
        if not resp.get("ok"):
            logger.warning(
                "node refused fleet registration",
                extra={"node": node_id, "fingerprint": fingerprint,
                       "error": resp.get("error")},
            )
            return False
        return True

    async def _resync_node(self, node_id: str) -> int:
        """Re-register every fleet a (recovered) node should be serving."""
        synced = 0
        for fingerprint in self._membership.fleets_on(node_id):
            spec = self._membership.fleet_spec(fingerprint)
            if spec is not None and await self._register_on(node_id, fingerprint, spec):
                synced += 1
        return synced

    # -- health probing --------------------------------------------------
    async def _probe_loop(self) -> None:
        interval = self._config.probe_interval
        while not self._draining:
            for node_id in list(self._links):
                await self._probe_one(node_id)
            await asyncio.sleep(interval)

    async def _probe_one(self, node_id: str) -> None:
        link = self._links.get(node_id)
        breaker = self._breakers.get(node_id)
        if link is None or breaker is None or not breaker.allow_probe():
            return
        was_closed = breaker.state == CLOSED
        try:
            resp = await link.request(
                "health", {}, timeout=min(self._config.attempt_timeout, 5.0)
            )
            ok = bool(resp.get("ok"))
        except (NodeBusy, NodeUnavailable) as exc:
            ok = not isinstance(exc, NodeUnavailable)  # busy node is alive
        if ok:
            breaker.record_success()
            if (not was_closed or node_id in self._down) and breaker.state == CLOSED:
                self._down.discard(node_id)
                synced = await self._resync_node(node_id)
                logger.info(
                    "node recovered", extra={"node": node_id, "resynced": synced}
                )
        else:
            breaker.record_failure()
            if breaker.state != CLOSED:
                self._down.add(node_id)

    # -- routing ---------------------------------------------------------
    def _retryable(self, op: str, resp: Mapping) -> str | None:
        """The retryable code of a node response, or ``None`` to accept it.

        ``plan_many`` envelopes stay ``ok`` while carrying per-item
        verdicts, so a batch shed by the node (every item ``overloaded``
        / ``shutting_down``) is recognised by inspecting the items; a
        batch with *any* solved item is accepted as-is (partial-failure
        handling belongs to the client, as in the single-node service).
        """
        if not resp.get("ok"):
            code = (resp.get("error") or {}).get("code")
            return code if code in RETRYABLE_CODES else None
        if op == "plan_many":
            items = (resp.get("result") or {}).get("results") or []
            codes = {it.get("code") for it in items if not it.get("ok", False)}
            if items and len(codes) > 0 and not any(
                it.get("ok", False) for it in items
            ) and codes <= RETRYABLE_CODES:
                return sorted(codes)[0]
        return None

    async def _route(
        self,
        op: str,
        fingerprint: str,
        fields: Mapping,
        *,
        timeout: float | None,
        ctx: TraceContext | None,
        root: Span | None,
    ) -> tuple[dict | None, str, str]:
        """Walk the replica set; returns ``(response, code, message)``.

        ``response`` is the accepted node response (``None`` when every
        replica failed, in which case ``code``/``message`` describe the
        most specific failure seen).
        """
        replicas = self._membership.replicas_for(fingerprint)
        last = ("unavailable", "the cluster has no member nodes")
        for i, node_id in enumerate(replicas):
            link = self._links.get(node_id)
            breaker = self._breakers.get(node_id)
            if link is None or breaker is None:
                continue
            if not breaker.allow():
                last = ("unavailable", f"circuit breaker is open for {node_id}")
                continue
            attempt_ctx = ctx.child() if ctx is not None else None
            span = None
            if root is not None and attempt_ctx is not None:
                span = Span(
                    name="cluster.attempt",
                    attrs={"node": node_id, "attempt": i},
                    trace_id=attempt_ctx.trace_id,
                    span_id=attempt_ctx.span_id,
                    parent_id=root.span_id,
                    started=time.time(),
                )
                root.children.append(span)
            send = dict(fields)
            if attempt_ctx is not None:
                send["trace"] = attempt_ctx.to_dict()
            t0 = time.perf_counter()
            try:
                resp = await link.request(op, send, timeout=timeout)
            except NodeBusy as exc:
                # Local shed: the node was never asked, so this is not a
                # breaker failure — release any half-open trial slot.
                breaker.record_success()
                self._shed.inc()
                last = ("overloaded", str(exc))
                self._finish_attempt(span, t0, "overloaded")
                continue
            except NodeUnavailable as exc:
                breaker.record_failure()
                last = ("unavailable", str(exc))
                self._finish_attempt(span, t0, "unavailable")
                continue
            breaker.record_success()
            retry_code = self._retryable(op, resp)
            if retry_code is not None:
                last = (
                    retry_code,
                    (resp.get("error") or {}).get(
                        "message", f"node {node_id} answered {retry_code}"
                    ),
                )
                self._finish_attempt(span, t0, retry_code)
                if retry_code == "unknown_fleet":
                    # The replica missed a registration (it was down when
                    # the fleet arrived); heal it off the request path.
                    self._spawn_reregister(node_id, fingerprint)
                continue
            self._finish_attempt(span, t0, "ok")
            (self._route_primary if i == 0 else self._route_fallback).inc()
            return resp, "ok", node_id
        self._route_unavailable.inc()
        return None, last[0], last[1]

    def _finish_attempt(self, span: Span | None, t0: float, status: str) -> None:
        if span is None:
            return
        span.seconds = time.perf_counter() - t0
        if status != "ok":
            span.status = "error"
            span.attrs["code"] = status

    def _spawn_reregister(self, node_id: str, fingerprint: str) -> None:
        spec = self._membership.fleet_spec(fingerprint)
        if spec is None or self._loop is None:
            return
        task = self._loop.create_task(
            self._register_on(node_id, fingerprint, spec)
        )
        # Fire-and-forget with the reference pinned until completion.
        task.add_done_callback(lambda t: t.exception())

    def _forward_timeout(self, timeout_ms: float | None) -> float | None:
        if timeout_ms is None:
            return self._config.attempt_timeout
        # Give the node its full deadline plus slack for the extra hop.
        return min(self._config.attempt_timeout, timeout_ms / 1000.0 + 5.0)

    # -- fleet registration ----------------------------------------------
    async def register_fleet(self, request: RegisterFleetRequest) -> dict:
        """Validate, fingerprint, and register a fleet on its replica set."""
        if self._draining:
            raise ProtocolError("shutting_down", "the router is draining")
        spec = request.spec()
        fleet = Fleet(
            speed_functions_from_fleet_spec(spec), name=spec.get("name") or None
        )
        replicas = self._membership.replicas_for(fleet.fingerprint)
        if not replicas:
            raise ProtocolError("unavailable", "the cluster has no member nodes")
        registered = []
        for node_id in replicas:
            if await self._register_on(node_id, fleet.fingerprint, spec):
                registered.append(node_id)
        if not registered:
            raise ProtocolError(
                "unavailable",
                f"no replica of {fleet.fingerprint} accepted the registration",
            )
        self._membership.register_fleet(fleet.fingerprint, spec)
        logger.info(
            "fleet registered on cluster",
            extra={"fingerprint": fleet.fingerprint, "nodes": registered},
        )
        return {
            **registration_info(fleet, spec),
            "nodes": replicas,
            "registered": registered,
        }

    # -- health / stats sections ----------------------------------------
    def _health_section(self) -> dict:
        """Per-node breaker states, fleets, replication (FrontEnd hook)."""
        return {
            "nodes": {
                node_id: {
                    "breaker": self._breakers[node_id].state
                    if node_id in self._breakers else "unknown",
                    "in_flight": self._links[node_id].in_flight
                    if node_id in self._links else 0,
                }
                for node_id in self._membership.nodes
            },
            "fleets": len(self._membership.fleets),
            "replication": self._config.replication,
        }

    async def _stats_section(self) -> dict:
        """Routing counters plus every member's stats (FrontEnd hook)."""
        async def fetch(node_id: str) -> dict:
            link = self._links.get(node_id)
            if link is None:
                return {"ok": False, "error": "no link"}
            try:
                resp = await link.request(
                    "stats", {}, timeout=min(self._config.attempt_timeout, 10.0)
                )
            except (NodeBusy, NodeUnavailable) as exc:
                return {"ok": False, "error": str(exc)}
            if resp.get("ok"):
                return {"ok": True, **resp["result"]}
            return {"ok": False, "error": resp.get("error")}

        nodes = self._membership.nodes
        docs = await asyncio.gather(*(fetch(node_id) for node_id in nodes))
        return {
            "cluster": self._membership.status(),
            "router": {
                "routed_primary": int(self._route_primary.value),
                "routed_fallback": int(self._route_fallback.value),
                "unavailable": int(self._route_unavailable.value),
                "shed": int(self._shed.value),
                "reshards": int(self._reshards.value),
                "breakers": {
                    node_id: breaker.state
                    for node_id, breaker in self._breakers.items()
                },
            },
            "nodes": dict(zip(nodes, docs)),
        }

    # -- protocol dispatch -----------------------------------------------
    async def _admin(self, raw: Mapping) -> dict:
        """Answer a ``cluster_*`` admin frame (FrontEnd hook)."""
        op = raw["op"]
        if op == "cluster_status":
            doc = self._membership.status()
            doc["router"] = self.health()
            return doc
        if op == "cluster_join":
            host = raw.get("host")
            port = raw.get("port")
            if not isinstance(host, str) or not host:
                raise ProtocolError(
                    "invalid_request", "cluster_join needs a 'host' string"
                )
            if isinstance(port, bool) or not isinstance(port, int) or port <= 0:
                raise ProtocolError(
                    "invalid_request", "cluster_join needs a positive 'port'"
                )
            http_port = raw.get("http_port")
            if http_port is not None and (
                isinstance(http_port, bool) or not isinstance(http_port, int)
            ):
                raise ProtocolError(
                    "invalid_request", "http_port must be an integer or null"
                )
            return await self.join(host, port, http_port)
        assert op == "cluster_leave"
        node_id = raw.get("node")
        if not isinstance(node_id, str) or not node_id:
            raise ProtocolError(
                "invalid_request", "cluster_leave needs a 'node' id string"
            )
        return await self.leave(node_id)

    async def _serve(
        self, request: Any, ctx: TraceContext | None, root: Span | None
    ) -> dict:
        """Answer one parsed request over the replica set (FrontEnd hook)."""
        if self._draining and not isinstance(request, (HealthRequest, StatsRequest)):
            raise ProtocolError("shutting_down", "the router is draining")
        if isinstance(request, RegisterFleetRequest):
            return await self.register_fleet(request)
        if isinstance(request, StatsRequest):
            return await self.stats()
        if isinstance(request, HealthRequest):
            return self.health()
        fleet = request.fleet
        if not self._membership.knows_fleet(fleet):
            raise ProtocolError(
                "unknown_fleet", f"fleet {fleet!r} is not registered on this cluster"
            )
        if isinstance(request, ObserveRequest):
            timeout_ms = None
            fields = {
                "fleet": fleet,
                "observations": [dict(o) for o in request.observations],
            }
        else:
            # Tenancy and idempotency ride through verbatim: the node
            # applies quotas/fair queueing per tenant, and a replica-walk
            # retry carrying the same idempotency key dedups against the
            # node's window.  _route adds each attempt's trace context.
            timeout_ms = request.timeout_ms
            sizes = (
                {"n": request.n} if isinstance(request, PlanRequest)
                else {"ns": request.ns}
            )
            fields = plan_fields(
                fleet, **sizes, timeout_ms=timeout_ms,
                allocation=request.allocation, tenant=request.tenant,
                idempotency_key=request.idempotency_key,
            )
        resp, code, detail = await self._route(
            request.op, fleet, fields,
            timeout=self._forward_timeout(timeout_ms), ctx=ctx, root=root,
        )
        if resp is None:
            raise ProtocolError(code, detail)
        if not resp.get("ok"):
            err = resp["error"]
            raise ProtocolError(err.get("code", "internal"), err.get("message", ""))
        return resp["result"]


def start_router_in_thread(
    config: RouterConfig | None = None,
    nodes: Sequence[NodeInfo] = (),
    *,
    timeout: float = 60.0,
) -> ServerHandle:
    """Boot a cluster router (with listeners) on a background thread.

    The cluster twin of :func:`repro.serve.server.start_in_thread`:
    returns the same :class:`~repro.serve.server.ServerHandle`, whose
    ``.service`` is the :class:`RouterService`.
    """
    config = config or RouterConfig()
    return run_in_thread(
        lambda: RouterService(config, nodes),
        name="repro-cluster-router",
        timeout=timeout,
    )
