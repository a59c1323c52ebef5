"""The planning service: batching, admission control, op dispatch.

:class:`PlanningService` is the transport-agnostic heart of
:mod:`repro.serve`.  The TCP and HTTP listeners, the smoke target and the
unit tests all feed decoded request objects into :meth:`PlanningService.handle`
and get response dicts back.  That call is the shared
:class:`~repro.serve.frontend.FrontEnd` pipeline (parse, trace, envelope,
record); everything it dispatches to is this module:

**Micro-batching.**  ``plan`` requests queue per *lane*, a
``(fingerprint, tenant)`` pair, which is busy while any batch it sent to
its shard is unanswered.  A plan on an idle lane goes out on the next
event-loop tick, with that tick's other arrivals.  A plan on a busy lane
waits, and everything waiting leaves as *one*
:meth:`~repro.planner.Planner.plan_many` job when the lane's batch
answers, or once ``max_batch`` requests wait.  ``plan_many`` requests
are already batches: they never wait, but keep their lane busy.

**Admission control.**  ``plan`` and ``plan_many`` share one admission
body: drain check, unknown fleet, idempotency window, tenant quota, then
the lane or the shard.  A keyed retry replays its remembered response:
no second quota charge, and no re-solve on a model refitted since.
Shard inboxes are bounded; when the owning shard's queue is full the
whole flushed batch is shed immediately with ``overloaded`` item
responses — queue depth, not latency, is the backpressure signal.
Requests carry optional deadlines which workers check at dequeue time,
so a backlog never wastes solves on expired work.  During drain, new
requests are refused with ``shutting_down`` while every in-flight batch
completes.

**Tracing.**  Request spans are built here and nowhere else.  A shard
answers each batch with a small ``timing`` record, and delivery turns it
into every traced request's ``serve.shard.batch`` span, its
``serve.shard.solve`` child (when anything was solved) and the request's
own ``serve.shard.item`` span(s).  The requests of one batch share the
batch and solve span ids: each tree holds only its own items, and the
shared id links it to its peers.

All of it is observable: per-op request counters and latency histograms,
batch-size histograms, shed counters and queue-depth gauges land in the
global :mod:`repro.obs` registry and flow out of the HTTP ``/metrics``
endpoint via the existing Prometheus exporter.
"""

from __future__ import annotations

import asyncio
import copy
import functools
import logging
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Mapping, Sequence

from .. import obs
from ..core.options import PartitionOptions
from ..exceptions import ConfigurationError, ReproError
from ..model.builder import DEFAULT_EPSILON, ModelBuildOptions
from ..model.online import OnlineBandRefitter
from ..obs.context import TraceContext, new_span_id
from ..obs.sink import FleetTelemetrySink, Observation
from ..obs.spans import Span
from ..planner import Fleet
from .frontend import FrontEnd, FrontEndConfig
from .protocol import (
    ObserveRequest,
    PlanManyRequest,
    PlanRequest,
    ProtocolError,
    RegisterFleetRequest,
    StatsRequest,
    fleet_spec_from_speed_functions,
    registration_info,
    speed_functions_from_fleet_spec,
)
from .shard import ShardPool, _item_error
from .tenancy import QuotaManager, TenancyConfig

__all__ = ["OnlineRefitConfig", "ServeConfig", "PlanningService"]

logger = logging.getLogger(__name__)

#: Batch-size histogram buckets (requests per flushed batch).
_BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class OnlineRefitConfig:
    """Knobs of the serve layer's online band re-fitting.

    Attributes
    ----------
    eps:
        Half-width of the acceptance band observations are judged
        against (the paper's 5 %).
    min_observations:
        A fleet's refit check runs once at least this many step
        observations accumulated since the last check (amortises the
        refit pass; the telemetry sink's recent deque bounds how many a
        pass can see).
    min_escaped:
        A band segment is re-fitted only once at least this many
        observations escaped it (noise patience, forwarded to
        :class:`repro.model.OnlineBandRefitter`).
    """

    eps: float = DEFAULT_EPSILON
    min_observations: int = 128
    min_escaped: int = 3

    def __post_init__(self) -> None:
        if not (0 < self.eps < 1):
            raise ConfigurationError(f"eps must be in (0, 1), got {self.eps!r}")
        if self.min_observations < 1:
            raise ConfigurationError(
                f"min_observations must be at least 1, got {self.min_observations!r}"
            )
        if self.min_escaped < 1:
            raise ConfigurationError(
                f"min_escaped must be at least 1, got {self.min_escaped!r}"
            )


@dataclass(frozen=True)
class ServeConfig(FrontEndConfig):
    """Tuning knobs for the planning service (see ``docs/serving.md``).

    The listener and tracing fields (``host``, ``port``, ``http_port``,
    ``tracing``, ``flight_*``) are inherited from
    :class:`~repro.serve.frontend.FrontEndConfig`.

    Attributes
    ----------
    shards:
        Worker count.  Each fleet lives on exactly one shard, so shards
        scale *fleet* parallelism, not single-fleet throughput.
    worker_mode:
        ``"thread"`` or ``"process"`` shard workers.
    max_batch:
        The most requests a busy lane holds before it flushes anyway.
    queue_depth:
        Per-shard inbox bound in jobs — the admission limit.
    default_timeout_ms:
        Deadline applied to requests that do not carry their own
        ``timeout_ms`` (``None`` = no deadline).
    online_refit:
        When set, ``observe`` requests feed an
        :class:`repro.model.OnlineBandRefitter` per fleet: observed
        ``(size, speed)`` points that escape a registered model's ±eps
        band trigger a re-fit of exactly the escaped size intervals, the
        owning shard swaps the refreshed model in, and only that fleet's
        cached plans are invalidated.  ``None`` (the default) still
        accepts ``observe`` requests but only records telemetry.
    tenancy:
        Per-tenant quotas and fair-queueing weights
        (:class:`~repro.serve.tenancy.TenancyConfig`).  ``None`` (the
        default) leaves every tenant unmetered at weight 1.0 — the shard
        inboxes still schedule fairly *across* whatever tenant names
        requests carry, and requests without a ``tenant`` field share
        one default lane, exactly like the FIFO they replaced.
    idempotency_window:
        How many completed ``plan``/``plan_many`` responses to remember
        per server for ``idempotency_key`` dedup (0 disables).  Within
        the window a retried key returns the original response without a
        second solve; concurrent duplicates coalesce onto one solve.
    warm_tier_size:
        Entry bound of the pool-wide warm plan store behind every shard's
        LRU (:class:`~repro.planner.tiered.TieredPlanCache`).
    """

    shards: int = 2
    worker_mode: str = "thread"
    max_batch: int = 64
    queue_depth: int = 128
    default_timeout_ms: float | None = None
    online_refit: OnlineRefitConfig | None = None
    tenancy: TenancyConfig | None = None
    idempotency_window: int = 1024
    warm_tier_size: int = 4096


class _Pending:
    """One plan request on its way to a shard, or waiting on its lane.

    ``span`` is the request's listener-side root span (it carries the
    trace id), ``None`` when serve-level tracing is off.  A whole
    ``plan_many`` request shares one span object across its pendings,
    so its item spans land under one batch span.
    """

    __slots__ = ("n", "deadline", "allocation", "future", "span")

    def __init__(
        self,
        n: int,
        deadline: float | None,
        allocation: bool,
        future,
        span: Span | None = None,
    ):
        self.n = n
        self.deadline = deadline
        self.allocation = allocation
        self.future = future
        self.span = span


def _batch_span(
    root: Span, timing: Mapping, batch_id: str, solve_id: str, items: int
) -> Span:
    """File a ``serve.shard.batch`` span (and its solve child) under ``root``.

    Built from the shard's ``timing`` record.  Every request of one batch
    gets the same ``batch_id`` and ``solve_id``, which is what links the
    peers' trees; ``items`` counts the whole batch.
    """
    batch = Span(
        name="serve.shard.batch",
        seconds=timing["seconds"],
        attrs={"shard": timing["shard"], "items": items},
        trace_id=root.trace_id,
        span_id=batch_id,
        parent_id=root.span_id,
        started=timing["started"],
    )
    if timing["sizes"]:
        batch.children.append(
            Span(
                name="serve.shard.solve",
                seconds=timing["solve_seconds"],
                attrs={"sizes": timing["sizes"]},
                trace_id=root.trace_id,
                span_id=solve_id,
                parent_id=batch_id,
            )
        )
    root.children.append(batch)
    return batch


def _item_span(batch: Span, n: int, result: Mapping) -> None:
    """File one request item's ``serve.shard.item`` verdict under ``batch``."""
    item = Span(
        name="serve.shard.item",
        attrs={"n": n},
        trace_id=batch.trace_id,
        span_id=new_span_id(),
        parent_id=batch.span_id,
    )
    if not result.get("ok", False):
        item.status = "error"
        item.attrs["code"] = result.get("code", "internal")
    batch.children.append(item)


class _IdempotencyWindow:
    """Bounded dedup window for ``idempotency_key`` requests.

    Event-loop confined (no locks): ``lookup`` and ``reserve`` run
    back-to-back with no ``await`` between them, so check-then-reserve
    is atomic.  Completed **ok** responses are remembered (LRU, at most
    ``capacity``); in-flight keys hold a future concurrent duplicates
    coalesce onto.  Error responses complete waiters but are *not*
    remembered — a retry after a transient failure gets a fresh attempt.
    """

    def __init__(self, capacity: int):
        self._capacity = int(capacity)
        self._done: OrderedDict[Hashable, Any] = OrderedDict()
        self._pending: dict[Hashable, asyncio.Future] = {}
        registry = obs.get_registry()
        self._hits = registry.counter(
            "serve.idempotent.hits",
            help="requests answered from the completed-response window",
        )
        self._coalesced = registry.counter(
            "serve.idempotent.coalesced",
            help="concurrent duplicates attached to an in-flight solve",
        )
        self._misses = registry.counter(
            "serve.idempotent.misses",
            help="idempotency keys that started a fresh solve",
        )
        self._evictions = registry.counter(
            "serve.idempotent.evictions",
            help="remembered responses aged out of the window",
        )

    @property
    def enabled(self) -> bool:
        return self._capacity > 0

    def lookup(self, key: Hashable):
        """``("done", value)``, ``("pending", future)`` or ``None``."""
        if key in self._done:
            self._done.move_to_end(key)
            self._hits.inc()
            return ("done", self._done[key])
        fut = self._pending.get(key)
        if fut is not None:
            self._coalesced.inc()
            return ("pending", fut)
        return None

    def reserve(self, key: Hashable, loop: asyncio.AbstractEventLoop) -> None:
        self._misses.inc()
        self._pending[key] = loop.create_future()

    def complete(self, key: Hashable, value: Any, *, ok: bool) -> None:
        fut = self._pending.pop(key, None)
        if fut is not None and not fut.done():
            fut.set_result(value)
        if ok:
            self._done[key] = value
            self._done.move_to_end(key)
            while len(self._done) > self._capacity:
                self._done.popitem(last=False)
                self._evictions.inc()

    def stats(self) -> dict:
        return {
            "window": self._capacity,
            "remembered": len(self._done),
            "in_flight": len(self._pending),
            "hits": int(self._hits.value),
            "coalesced": int(self._coalesced.value),
            "misses": int(self._misses.value),
            "evictions": int(self._evictions.value),
        }


class _RefitState:
    """Online-refit bookkeeping for one registered fleet.

    The fleet keeps its *serving* fingerprint (clients and the shard
    hash ring keep addressing it by the fingerprint it registered
    under); ``model_fingerprint`` tracks the model actually planning,
    and moves every time a refit lands.
    """

    __slots__ = ("refitter", "model_fingerprint", "pending", "busy",
                 "refits", "invalidated")

    def __init__(self, refitter: OnlineBandRefitter, model_fingerprint: str):
        self.refitter = refitter
        self.model_fingerprint = model_fingerprint
        self.pending = 0          # observations since the last refit check
        self.busy = False         # a refit check/swap is in flight
        self.refits = 0           # refits applied to this fleet
        self.invalidated = 0      # cached plans dropped by those refits


class PlanningService(FrontEnd):
    """Async service answering protocol requests over a shard pool.

    The :class:`~repro.serve.frontend.FrontEnd` whose backend is the local
    shard pool.  Construct, then ``await start()`` from the event loop
    that will call :meth:`handle`.  All batching state is touched only
    from that loop, so it needs no locks; the shard pool does its own
    synchronisation.
    """

    prefix = "serve"
    role = "server"

    def __init__(self, config: ServeConfig | None = None):
        super().__init__(config or ServeConfig())
        self._sink = FleetTelemetrySink()
        self._pool: ShardPool | None = None
        self._fleets: dict[str, dict] = {}
        self._refits: dict[str, _RefitState] = {}
        # Per-lane waiting plans and unanswered batch counts (no empty
        # entries); per-tenant lanes keep every batch single-tenant.
        self._waiting: dict[tuple[str, str], list[_Pending]] = {}
        self._busy: dict[tuple[str, str], int] = {}
        self._inflight: set[asyncio.Future] = set()
        self._loop: asyncio.AbstractEventLoop | None = None

        registry = obs.get_registry()
        self._shed = registry.counter(
            "serve.shed", help="plan requests shed with an overloaded response"
        )
        self._batch_size = registry.histogram(
            "serve.batch.size",
            buckets=_BATCH_BUCKETS,
            help="plan requests per flushed micro-batch",
        )
        self._batches_flushed = registry.counter(
            "serve.batches", help="micro-batches flushed to shards"
        )
        self._quotas = QuotaManager(self._config.tenancy)
        self._idem = _IdempotencyWindow(self._config.idempotency_window)
        self._tenant_counters: dict[tuple[str, str], Any] = {}

    # -- lifecycle ------------------------------------------------------
    @property
    def pool(self) -> ShardPool:
        if self._pool is None:
            raise RuntimeError("the service has not been started")
        return self._pool

    @property
    def sink(self) -> FleetTelemetrySink:
        """The per-fleet telemetry sink the ``observe`` op feeds."""
        return self._sink

    async def start(self) -> None:
        """Spin up the shard pool; must run on the serving event loop."""
        if self._pool is not None:
            return
        self._loop = asyncio.get_running_loop()
        cfg = self._config
        self._pool = ShardPool(
            cfg.shards,
            mode=cfg.worker_mode,
            queue_depth=cfg.queue_depth,
            warm_tier_size=cfg.warm_tier_size,
        )
        logger.info(
            "planning service started",
            extra={"shards": cfg.shards, "mode": cfg.worker_mode,
                   "queue_depth": cfg.queue_depth},
        )

    async def _drain(self) -> None:
        """Finish in-flight batches, then close the pool (FrontEnd hook).

        Every request admitted before the drain started gets a real
        response; the shard pool is then closed with ``drain=True`` so
        queued jobs complete before the workers exit.
        """
        if self._pool is None:
            return
        for key in list(self._waiting):
            self._flush(key)
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        pool = self._pool
        assert self._loop is not None
        await self._loop.run_in_executor(
            None, functools.partial(pool.close, drain=True)
        )
        logger.info("planning service drained")

    # -- fleet registry -------------------------------------------------
    async def register_fleet(
        self,
        speed_functions: Sequence | None = None,
        *,
        spec: Mapping | None = None,
        name: str = "",
        algorithm: str = "bisection",
        options: PartitionOptions | None = None,
        cache_size: int = 1024,
    ) -> dict:
        """Register a fleet (from objects or a wire spec) on its shard.

        The fleet is built here first — validating the models and fixing
        the content fingerprint — then shipped to the owning worker,
        which must arrive at the *same* fingerprint (the protocol's JSON
        records preserve knot content exactly).  Re-registering an
        existing fingerprint is idempotent unless the planner options
        changed, in which case the shard's planner is rebuilt.  The spec
        kept for that comparison is the registered one, never a refitted
        one, so the same spec again keeps a refitted model in place.
        """
        if self._draining:
            raise ProtocolError("shutting_down", "the service is draining")
        if spec is None:
            if speed_functions is None:
                raise ProtocolError(
                    "invalid_request", "register_fleet needs speed functions"
                )
            spec = fleet_spec_from_speed_functions(
                speed_functions,
                name=name,
                algorithm=algorithm,
                options=options,
                cache_size=cache_size,
            )
        fleet = Fleet(
            speed_functions_from_fleet_spec(spec), name=spec.get("name") or None
        )
        known = self._fleets.get(fleet.fingerprint)
        if known is not None and known["spec"] == dict(spec):
            return dict(known["info"])
        future = self.pool.register(spec, fleet.fingerprint)
        payload = await asyncio.wrap_future(future)
        if not payload.get("ok"):
            raise ProtocolError(
                payload.get("code", "internal"),
                payload.get("message", "fleet registration failed"),
            )
        if payload["fingerprint"] != fleet.fingerprint:  # pragma: no cover
            raise ProtocolError(
                "internal",
                "worker fingerprint mismatch: "
                f"{payload['fingerprint']} != {fleet.fingerprint}",
            )
        info = {
            **registration_info(fleet, spec),
            "shard": self.pool.shard_for(fleet.fingerprint),
            "model_fingerprint": fleet.fingerprint,
        }
        self._fleets[fleet.fingerprint] = {"spec": dict(spec), "info": info}
        refit_cfg = self._config.online_refit
        if refit_cfg is not None:
            self._refits[fleet.fingerprint] = _RefitState(
                OnlineBandRefitter(
                    fleet.speed_functions,
                    options=ModelBuildOptions(eps=refit_cfg.eps),
                    min_escaped=refit_cfg.min_escaped,
                    name=fleet.name or "online-refit",
                ),
                fleet.fingerprint,
            )
        logger.info(
            "fleet registered",
            extra={"fingerprint": fleet.fingerprint, "p": fleet.p,
                   "shard": info["shard"]},
        )
        return dict(info)

    def _deadline_for(self, timeout_ms: float | None) -> float | None:
        if timeout_ms is None:
            timeout_ms = self._config.default_timeout_ms
        if timeout_ms is None:
            return None
        return time.time() + timeout_ms / 1000.0

    # -- tenancy --------------------------------------------------------
    def _tenant_counter(self, kind: str, tenant: str):
        """Lazy per-tenant counter (``serve.tenant.<kind>``)."""
        key = (kind, tenant)
        counter = self._tenant_counters.get(key)
        if counter is None:
            counter = obs.get_registry().counter(
                f"serve.tenant.{kind}",
                labels={"tenant": tenant or "default"},
                help=f"plan requests {kind} per tenant",
            )
            self._tenant_counters[key] = counter
        return counter

    def _throttle(self, tenant: str, cost: float) -> dict | None:
        """Charge ``cost`` against the tenant's bucket; an error item if broke."""
        self._tenant_counter("requests", tenant).inc()
        if self._quotas.try_acquire(tenant, cost):
            return None
        self._tenant_counter("throttled", tenant).inc()
        return _item_error(
            "throttled",
            f"tenant {tenant or 'default'!r} exceeded its request quota",
        )

    # -- plan paths -----------------------------------------------------
    async def plan(
        self,
        fingerprint: str,
        n: int,
        *,
        timeout_ms: float | None = None,
        allocation: bool = True,
        span: Span | None = None,
        tenant: str = "",
        idempotency_key: str | None = None,
    ) -> dict:
        """One plan query through the micro-batcher (an item dict back).

        ``span`` is the request's listener-side root span; delivery files
        its batch, solve and item spans under it (:meth:`_deliver`).
        ``tenant`` selects the fair-queueing lane and quota bucket;
        ``idempotency_key`` dedups retries within the server's window.
        """
        (item,) = await self._admit(
            "plan", fingerprint, [n], timeout_ms=timeout_ms,
            allocation=allocation, span=span, tenant=tenant,
            idempotency_key=idempotency_key,
        )
        return item

    async def plan_many(
        self,
        fingerprint: str,
        ns: Sequence[int],
        *,
        timeout_ms: float | None = None,
        allocation: bool = True,
        span: Span | None = None,
        tenant: str = "",
        idempotency_key: str | None = None,
    ) -> list[dict]:
        """A caller-assembled batch: dispatched at once, never waits on a lane."""
        return await self._admit(
            "plan_many", fingerprint, ns, timeout_ms=timeout_ms,
            allocation=allocation, span=span, tenant=tenant,
            idempotency_key=idempotency_key,
        )

    async def _admit(
        self, op: str, fingerprint: str, sizes: Sequence[int], *,
        timeout_ms: float | None, allocation: bool, span: Span | None,
        tenant: str, idempotency_key: str | None,
    ) -> list[dict]:
        """The admission body of :meth:`plan` and :meth:`plan_many`.

        Drain check, unknown fleet, idempotency lookup, quota, reserve,
        dispatch, await, complete; one item per size.  ``op`` scopes the
        idempotency key; a ``plan`` queues on its ``(fingerprint,
        tenant)`` lane, a ``plan_many`` goes straight to its shard.
        """
        if self._draining:
            return [_item_error("shutting_down", "the service is draining")
                    for _ in sizes]
        if fingerprint not in self._fleets:
            message = f"fleet {fingerprint!r} is not registered"
            return [_item_error("unknown_fleet", message) for _ in sizes]
        assert self._loop is not None
        idem_key = None
        if idempotency_key is not None and self._idem.enabled:
            idem_key = (fingerprint, op, tenant, idempotency_key)
            found = self._idem.lookup(idem_key)
            if found is not None:
                kind, value = found
                if kind == "pending":
                    value = await value
                return copy.deepcopy(value)
        throttled = self._throttle(tenant, float(len(sizes)))
        if throttled is not None:
            return [dict(throttled) for _ in sizes]
        if idem_key is not None:
            self._idem.reserve(idem_key, self._loop)
        deadline = self._deadline_for(timeout_ms)
        pendings = [
            _Pending(int(n), deadline, allocation, self._loop.create_future(), span)
            for n in sizes
        ]
        key = (fingerprint, tenant)
        if op == "plan_many":
            self._dispatch(key, pendings)
        else:
            waiting = self._waiting.get(key)
            if waiting is None:
                waiting = self._waiting[key] = []
                if key not in self._busy:
                    # An idle lane goes out next tick, with the rest of
                    # this tick's arrivals; a busy one waits for an answer.
                    self._loop.call_soon(self._flush_idle, key)
            waiting.extend(pendings)
            if len(waiting) >= self._config.max_batch:
                self._flush(key)
        items = [_item_error("internal", "plan future abandoned") for _ in sizes]
        try:
            items = [await p.future for p in pendings]
            return items
        finally:
            if idem_key is not None:
                self._idem.complete(
                    idem_key,
                    copy.deepcopy(items),
                    ok=all(it.get("ok") for it in items),
                )

    def _flush(self, key: tuple[str, str]) -> None:
        self._dispatch(key, self._waiting.pop(key, []))

    def _flush_idle(self, key: tuple[str, str]) -> None:
        # The lane may have filled to max_batch and gone busy within the
        # tick; its batch's answer flushes the rest, not this callback.
        if key not in self._busy:
            self._flush(key)

    def _dispatch(self, key: tuple[str, str], pendings: list[_Pending]) -> None:
        """Hand one single-tenant batch to the owning shard (or shed it)."""
        if not pendings:
            return
        fingerprint, tenant = key
        items = [
            {"n": p.n, "deadline": p.deadline, "allocation": p.allocation}
            for p in pendings
        ]
        try:
            future = self.pool.submit_batch(
                fingerprint,
                items,
                tenant=tenant,
                weight=self._quotas.weight_for(tenant),
            )
        except ReproError as exc:
            err = _item_error("shutting_down", str(exc))
            for p in pendings:
                if not p.future.done():
                    p.future.set_result(dict(err))
            return
        if future is None:
            self._shed.inc(len(pendings))
            self._tenant_counter("shed", tenant).inc(len(pendings))
            err = _item_error(
                "overloaded",
                f"shard {self.pool.shard_for(fingerprint)} queue is full "
                f"(depth {self.pool.queue_depth})",
            )
            for p in pendings:
                if not p.future.done():
                    p.future.set_result(dict(err))
            return
        self._batches_flushed.inc()
        self._batch_size.observe(len(pendings))
        self._busy[key] = self._busy.get(key, 0) + 1
        answered = self._loop.create_future()
        self._inflight.add(answered)
        future.add_done_callback(
            functools.partial(self._answer_soon, key, pendings, answered)
        )

    def _answer_soon(self, key, pendings, answered, future) -> None:
        # Runs in whichever thread completed the shard future.
        if not self._loop.is_closed():
            self._loop.call_soon_threadsafe(
                self._deliver, key, future, pendings, answered
            )

    def _deliver(self, key, future, pendings: list[_Pending], answered) -> None:
        """Answer a batch's requests; build each traced request's spans.

        Runs on the loop as soon as the shard's future completes.  First
        the lane's waiting plans leave as the next batch, so the shard
        starts on them while this one is answered.  The spans come from
        the payload's ``timing`` record: one batch span per request root
        (a ``plan_many``'s pendings share theirs), the solve child, and
        one item span per pending.  Every request of the batch reuses
        one batch span id and one solve span id.
        """
        self._inflight.discard(answered)
        if not answered.done():  # a cancelled drain may have dropped it
            answered.set_result(None)
        busy = self._busy.pop(key) - 1
        if busy:
            self._busy[key] = busy
        self._flush(key)
        payload = future.result()
        results = payload.get("results") if payload.get("ok") else None
        if results is None or len(results) != len(pendings):
            err = _item_error(
                payload.get("code", "internal"),
                payload.get("message", "malformed worker payload"),
            )
            results = [dict(err) for _ in pendings]
        timing = payload.get("timing")
        ids = root = batch = None
        for p, result in zip(pendings, results):
            if p.span is not None and timing is not None:
                if p.span is not root:
                    ids = ids or (new_span_id(), new_span_id())
                    root = p.span
                    batch = _batch_span(root, timing, *ids, len(pendings))
                _item_span(batch, p.n, result)
            if not p.future.done():
                p.future.set_result(result)

    # -- observe / online refit -----------------------------------------
    async def observe(
        self, fingerprint: str, observations: Sequence[Mapping]
    ) -> dict:
        """Ingest observed step timings for a fleet; maybe re-fit its model.

        Every record lands in the telemetry sink regardless of
        configuration.  With ``ServeConfig.online_refit`` set, once
        enough observations accumulate a refit check runs: the recent
        window is escape-tested against the fleet's current ±eps band
        and, if the model drifted, the owning shard swaps in the
        re-fitted model and drops exactly that fleet's cached plans.
        The response reports ``accepted`` and, when a refit landed this
        call, a ``refit`` document with the new model fingerprint.
        """
        if self._draining:
            raise ProtocolError("shutting_down", "the service is draining")
        if fingerprint not in self._fleets:
            raise ProtocolError(
                "unknown_fleet", f"fleet {fingerprint!r} is not registered"
            )
        parsed = []
        for i, raw in enumerate(observations):
            try:
                parsed.append(Observation.from_wire(raw))
            except (TypeError, ValueError) as exc:
                raise ProtocolError(
                    "invalid_request", f"observations[{i}]: {exc}"
                ) from exc
        for rec in parsed:
            self._sink.observe(fingerprint, rec)
        refit_doc = None
        state = self._refits.get(fingerprint)
        if state is not None:
            state.pending += len(parsed)
            cfg = self._config.online_refit
            if cfg is not None and state.pending >= cfg.min_observations \
                    and not state.busy:
                refit_doc = await self._maybe_refit(fingerprint, state)
        return {"accepted": len(parsed), "refit": refit_doc}

    async def _maybe_refit(self, fingerprint: str, state: _RefitState) -> dict | None:
        """One refit check; returns a summary document if a refit landed.

        The escape test and trisection run off-loop (pure CPU over the
        recent-observation window); the model swap is one control-plane
        round-trip to the owning shard, which also invalidates exactly
        this fleet's cached plans before rebuilding its planner.
        """
        state.busy = True
        try:
            recent = self._sink.recent(fingerprint)
            state.pending = 0
            assert self._loop is not None
            refit = await self._loop.run_in_executor(
                None, state.refitter.refit, recent
            )
            if not refit.changed:
                return None
            entry = self._fleets[fingerprint]
            spec = {
                **entry["spec"],
                "speed_functions": fleet_spec_from_speed_functions(
                    refit.functions
                )["speed_functions"],
            }
            future = self.pool.refit(
                fingerprint, spec, old_fingerprint=state.model_fingerprint
            )
            payload = await asyncio.wrap_future(future)
            if not payload.get("ok"):
                raise ProtocolError(
                    payload.get("code", "internal"),
                    payload.get("message", "model refit failed"),
                )
            if payload["fingerprint"] != refit.fingerprint_after:  # pragma: no cover
                raise ProtocolError(
                    "internal",
                    "worker refit fingerprint mismatch: "
                    f"{payload['fingerprint']} != {refit.fingerprint_after}",
                )
            invalidated = int(payload.get("invalidated", 0))
            state.model_fingerprint = refit.fingerprint_after
            state.refits += 1
            state.invalidated += invalidated
            state.refitter = OnlineBandRefitter(
                refit.functions,
                options=state.refitter.options,
                min_escaped=state.refitter.min_escaped,
                name=entry["info"].get("name") or "online-refit",
            )
            entry["info"]["model_fingerprint"] = refit.fingerprint_after
            self._sink.clear_recent(fingerprint)
            logger.info(
                "fleet model refitted",
                extra={
                    "fingerprint": fingerprint,
                    "model_fingerprint": refit.fingerprint_after,
                    "machines": list(refit.refitted_machines),
                    "invalidated": invalidated,
                },
            )
            return {
                "fingerprint": refit.fingerprint_after,
                "machines": list(refit.refitted_machines),
                "invalidated": invalidated,
            }
        finally:
            state.busy = False

    # -- health / stats sections ---------------------------------------
    def _health_section(self) -> dict:
        """Shard count, mode, fleets and queue depths (FrontEnd hook)."""
        pool = self._pool
        return {
            "shards": 0 if pool is None else pool.shards,
            "worker_mode": self._config.worker_mode,
            "fleets": len(self._fleets),
            "queue_depths": [] if pool is None else pool.queue_depths(),
        }

    async def _stats_section(self) -> dict:
        """Shard, fleet, refit and tenancy counters (FrontEnd hook)."""
        shards = []
        if self._pool is not None and not self._pool.closed:
            payloads = await asyncio.gather(
                *(asyncio.wrap_future(f) for f in self._pool.stats_all())
            )
            shards = [p for p in payloads if p.get("ok")]
        return {
            "shed": int(self._shed.value),
            "batches": int(self._batches_flushed.value),
            "fleets": {
                fp: dict(entry["info"]) for fp, entry in self._fleets.items()
            },
            "shards": shards,
            "queue_depths": [] if self._pool is None else self._pool.queue_depths(),
            "telemetry": {
                "cells": len(self._sink),
                "fingerprints": self._sink.fingerprints(),
            },
            "refit": self._refit_stats(),
            "tenancy": self._tenancy_stats(),
        }

    def _tenancy_stats(self) -> dict:
        """The stats() "tenancy" section: quotas, idempotency, warm tier."""
        tenants: dict[str, dict] = {}
        for (kind, tenant), counter in self._tenant_counters.items():
            tenants.setdefault(tenant or "default", {})[kind] = int(counter.value)
        pool = self._pool
        backlogs = {}
        if pool is not None and not pool.closed:
            backlogs = {
                tenant or "default": depth
                for tenant, depth in pool.tenant_backlogs().items()
            }
        return {
            "enabled": self._config.tenancy is not None,
            "tenants": tenants,
            "backlogs": backlogs,
            "idempotency": self._idem.stats(),
            "warm_tier": {"enabled": False} if pool is None or pool.closed
            else pool.warm_tier_stats(),
        }

    def _refit_stats(self) -> dict:
        """The stats() "refit" section: registry counters + per-fleet state."""
        registry = obs.get_registry()
        counters = {
            name: int(registry.counter(f"model.refit.{name}").value)
            for name in (
                "checks", "applied", "machines", "intervals",
                "observations", "measurements",
            )
        }
        return {
            "enabled": self._config.online_refit is not None,
            "counters": counters,
            "invalidated": sum(s.invalidated for s in self._refits.values()),
            "fleets": {
                fp: {
                    "refits": s.refits,
                    "invalidated": s.invalidated,
                    "model_fingerprint": s.model_fingerprint,
                    "pending": s.pending,
                }
                for fp, s in self._refits.items()
            },
        }

    # -- protocol dispatch ----------------------------------------------
    async def _serve(
        self, request: Any, ctx: TraceContext | None, root: Span | None
    ) -> dict:
        """Answer one parsed request from the shard pool (FrontEnd hook)."""
        if isinstance(request, (PlanRequest, PlanManyRequest)):
            kwargs = dict(
                timeout_ms=request.timeout_ms,
                allocation=request.allocation,
                span=root,
                tenant=request.tenant,
                idempotency_key=request.idempotency_key,
            )
            if isinstance(request, PlanManyRequest):
                items = await self.plan_many(request.fleet, request.ns, **kwargs)
                return {"results": items}
            item = await self.plan(request.fleet, request.n, **kwargs)
            if not item.get("ok"):
                raise ProtocolError(item["code"], item["message"])
            return item
        if isinstance(request, RegisterFleetRequest):
            return await self.register_fleet(spec=request.spec())
        if isinstance(request, ObserveRequest):
            return await self.observe(request.fleet, request.observations)
        if isinstance(request, StatsRequest):
            return await self.stats()
        return self.health()
