"""The sharded worker pool: process-local planners, bounded inboxes.

Each worker shard owns the :class:`~repro.planner.Planner` instances for
the fleet fingerprints the :class:`~repro.serve.hashring.HashRing`
assigns to it.  Ownership is exclusive, which is the whole point: a
planner's LRU plan cache is only useful when every query for a fleet
lands on the *same* planner, and keeping each planner single-owner makes
the hot path lock-free in practice (the planner's internal locks never
contend).

Two worker flavours share one loop (:func:`worker_loop`):

* ``mode="thread"`` — shards are daemon threads with ``queue.Queue``
  inboxes.  Planners live in the serving process; right for tests, the
  smoke target and CPU-light deployments (NumPy releases the GIL for
  the large-array work that dominates big fleets).
* ``mode="process"`` — shards are ``multiprocessing`` processes with
  ``mp.Queue`` inboxes.  Fleet models travel as the JSON-able specs of
  :func:`~repro.serve.protocol.fleet_spec_from_speed_functions`; each
  child rebuilds its fleets and keeps planners fully process-local.

Admission control lives at the inbox: every shard's queue is a bounded
:class:`~repro.serve.tenancy.WFQueue` — jobs are scheduled by weighted
fair queueing across tenants instead of FIFO arrival order, and the
bound applies **per tenant**, so a flooding tenant sheds only itself.
:meth:`ShardPool.submit_batch` uses a non-blocking put, and a full lane
returns ``None`` — the service layer turns that into explicit
``overloaded`` responses instead of queueing without bound.  Each request
carries its own deadline; a worker checks deadlines *when it dequeues* a
job, so requests that sat in a backlog past their deadline are answered
``deadline_exceeded`` without wasting a solve.  :meth:`ShardPool.close`
with ``drain=True`` seals the inboxes, lets the workers finish every
queued job, and joins them — in-flight work completes, nothing is lost.

No span crosses the shard boundary.  A batch message carries only its
items, and every batch payload — in both modes, traced or not — carries
a small ``timing`` record next to the verdicts: the shard, the batch's
wall-clock start, its seconds, the shared solve's seconds and the number
of sizes solved.  The front end builds each traced request's spans from
that record (:class:`~repro.serve.service.PlanningService`).

Two durability features ride on the same structure:

* a pool-wide :class:`~repro.planner.tiered.WarmPlanStore` backs every
  shard planner's :class:`~repro.planner.tiered.TieredPlanCache`, so
  plans survive the workers that solved them.  Thread pools keep it as
  a plain locked dict; process pools host it in a
  :class:`~repro.planner.tiered.WarmStoreManager` server the pool
  starts, and workers reach it through a proxy at one round trip per
  store operation.  Every plan a worker solves is written through to
  the store before the batch answers;
* :meth:`ShardPool.restart_shard` recycles one worker in place — an
  urgent exit marker overtakes the queued backlog, the replacement
  re-registers the shard's fleet specs and drains the *same* inbox, and
  its planners re-warm from the shared store (queued jobs and their
  futures are preserved across the swap).
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing as mp
import queue
import threading
import time
from concurrent.futures import Future
from typing import Any, Mapping, Sequence

from .. import obs
from ..exceptions import ConfigurationError
from ..planner.tiered import TieredPlanCache, WarmPlanStore, WarmStoreManager
from .hashring import HashRing
from .protocol import error_code_for, speed_functions_from_fleet_spec
from .tenancy import CONTROL_TENANT, WFQueue

__all__ = ["ShardPool", "worker_loop", "result_to_dict"]

logger = logging.getLogger(__name__)

#: Message kinds travelling through a shard inbox (tuples pickle cleanly
#: across the multiprocessing boundary).
_KIND_REGISTER = "register"
_KIND_BATCH = "batch"
_KIND_STATS = "stats"
_KIND_REFIT = "refit"

#: Restart marker: the worker returns *without* emitting the collector's
#: exit marker (a replacement is about to take over its inbox).
_KIND_EXIT = "__worker_exit__"

#: Collector-internal marker a worker emits as it exits.
_SHARD_EXIT = "__shard_exit__"


def result_to_dict(result, *, allocation: bool = True) -> dict:
    """A :class:`~repro.core.result.PartitionResult` as a wire object."""
    out = {
        "ok": True,
        "n": int(result.n),
        "p": int(result.p),
        "makespan": float(result.makespan),
        "iterations": int(result.iterations),
        "slope": None if result.slope is None else float(result.slope),
    }
    if allocation:
        out["allocation"] = result.allocation.tolist()
    return out


def _item_error(code: str, message: str) -> dict:
    return {"ok": False, "code": code, "message": message}


def _build_planner(spec: Mapping, warm: WarmPlanStore):
    """One shard-local planner (and its fleet) from a wire spec.

    The planner's :class:`~repro.planner.tiered.TieredPlanCache` sits in
    front of the pool's shared warm store, so a freshly (re)built worker
    re-warms from plans its predecessors — or sibling processes —
    already solved.
    """
    # Imported here (not at module top) so a spawned child pays the import
    # once and fork-mode children reuse the parent's modules either way.
    from ..planner import Fleet, Planner

    sfs = speed_functions_from_fleet_spec(spec)
    fleet = Fleet(sfs, name=spec.get("name") or None)
    cache_size = int(spec.get("cache_size", 1024))
    planner = Planner(
        fleet,
        algorithm=spec.get("algorithm", "bisection"),
        mode=spec.get("mode", "tangent"),
        refine=spec.get("refine", "greedy"),
        cache_size=cache_size,
        cache=TieredPlanCache(cache_size, warm=warm),
    )
    return fleet, planner


def worker_loop(
    shard_id: int,
    inbox,
    outbox,
    warm: WarmPlanStore,
    initial_specs: Sequence[tuple[str, Mapping]] = (),
) -> None:
    """One shard's request loop (runs in a thread or a child process).

    Reads ``(kind, job_id, ...)`` tuples from ``inbox`` until the ``None``
    sentinel, answering each with ``(job_id, payload)`` on ``outbox``.
    All fleet state — the planners — is local to this function
    invocation, so nothing here needs a lock.

    ``warm`` is the pool's shared plan store;
    ``initial_specs`` is the ``(serving fingerprint, spec)`` list a
    *restarted* worker re-registers before touching the queue, so jobs
    that survived its predecessor in the inbox still find their fleets.
    """
    planners: dict = {}
    # Plans invalidated by refits, per serving fingerprint: a refit swaps
    # in a fresh planner (and a fresh cache), so this is carried here to
    # keep the fleet's lifetime invalidation count in its stats row.
    refit_invalidations: dict[str, int] = {}
    for serving_fp, spec in initial_specs:
        try:
            planners[serving_fp] = _build_planner(spec, warm)[1]
        except Exception:  # noqa: BLE001 - a bad spec must not kill the shard
            logger.exception("shard %d could not rebuild fleet %s", shard_id, serving_fp)
    while True:
        msg = inbox.get()
        if msg is None:
            outbox.put((_SHARD_EXIT, shard_id))
            return
        kind, job_id = msg[0], msg[1]
        if kind == _KIND_EXIT:
            # Restart marker: leave quietly — a replacement worker owns
            # the inbox next, so the collector's exit count must not move.
            return
        try:
            if kind == _KIND_REGISTER:
                spec: Mapping = msg[2]
                fleet, planner = _build_planner(spec, warm)
                planners[fleet.fingerprint] = planner
                outbox.put(
                    (
                        job_id,
                        {"ok": True, "fingerprint": fleet.fingerprint},
                    )
                )
            elif kind == _KIND_BATCH:
                outbox.put(
                    (job_id, _solve_batch(shard_id, planners, msg[2], msg[3]))
                )
            elif kind == _KIND_REFIT:
                # An online refit retires a fleet's old model: invalidate
                # exactly the stale fingerprint's plan-cache entries (via
                # the public PlanCache.invalidate — no blanket flush) and
                # rebuild the planner over the refitted spec, keeping the
                # serving fingerprint clients address the fleet by.
                serving_fp, spec, old_fp = msg[2], msg[3], msg[4]
                old_planner = planners.get(serving_fp)
                if old_planner is None:
                    outbox.put(
                        (
                            job_id,
                            _item_error(
                                "unknown_fleet",
                                f"fleet {serving_fp!r} is not registered",
                            ),
                        )
                    )
                    continue
                invalidated = old_planner.cache.invalidate(old_fp)
                refit_invalidations[serving_fp] = (
                    refit_invalidations.get(serving_fp, 0) + invalidated
                )
                fleet, planner = _build_planner(spec, warm)
                planners[serving_fp] = planner
                outbox.put(
                    (
                        job_id,
                        {
                            "ok": True,
                            "fingerprint": fleet.fingerprint,
                            "invalidated": invalidated,
                        },
                    )
                )
            elif kind == _KIND_STATS:
                fleets = {}
                for fp, planner in planners.items():
                    stats = planner.stats()
                    fleets[fp] = {
                        "name": planner.fleet.name,
                        "p": planner.fleet.p,
                        "algorithm": planner.algorithm,
                        "model_fingerprint": planner.fleet.fingerprint,
                        "cold_plans": stats.cold_plans,
                        "warm_plans": stats.warm_plans,
                        "cache_hits": stats.cache.hits,
                        "cache_misses": stats.cache.misses,
                        "cache_evictions": stats.cache.evictions,
                        "cache_invalidations": stats.cache.invalidations
                        + refit_invalidations.get(fp, 0),
                        "cache_size": stats.cache.size,
                        "warm": planner.cache.warm_stats(),
                    }
                outbox.put((job_id, {"ok": True, "shard": shard_id, "fleets": fleets}))
            else:
                outbox.put((job_id, _item_error("internal", f"unknown job kind {kind!r}")))
        except Exception as exc:  # noqa: BLE001 - a shard must never die mid-serve
            logger.exception("shard %d job failed", shard_id)
            outbox.put((job_id, _item_error(error_code_for(exc), str(exc))))


def _solve_batch(
    shard_id: int, planners, fingerprint: str, items: Sequence[Mapping]
) -> dict:
    """Answer one coalesced batch; every item gets an independent verdict.

    The payload's ``timing`` record — the shard, the batch's wall-clock
    start, its seconds, the shared solve's seconds and the sizes that
    solve answered — is all the front end needs to build each traced
    request's batch spans, so no span crosses the shard boundary.
    """
    started, t0 = time.time(), time.perf_counter()
    solve_s = 0.0
    solvable: list[int] = []
    planner = planners.get(fingerprint)
    if planner is None:
        err = _item_error("unknown_fleet", f"fleet {fingerprint!r} is not registered")
        results: list[dict | None] = [dict(err) for _ in items]
    else:
        # The most an integer plan can hold: min(sum(floor(max_i)), 2**53),
        # which sits below the fleet's ``capacity`` (sum(max_i)) whenever a
        # bound is fractional or absent.  Sizes past it must fail alone,
        # not sink the batch.
        capacity = planner.fleet.pack.max_total
        results = [None] * len(items)
        for i, item in enumerate(items):
            deadline = item.get("deadline")
            n = item["n"]
            if deadline is not None and started > deadline:
                results[i] = _item_error(
                    "deadline_exceeded", f"request for n={n} expired in the shard queue"
                )
            elif n < 0 or n > capacity:
                results[i] = _item_error(
                    "infeasible",
                    f"n={n} is outside the fleet's feasible range [0, {capacity:.0f}]",
                )
            else:
                solvable.append(i)
    if solvable:
        # One lockstep sweep answers the whole batch; items needing
        # allocations keep them, the rest stay summary-only on the wire.
        t1 = time.perf_counter()
        try:
            plans = planner.plan_many([items[i]["n"] for i in solvable])
        except Exception as exc:  # noqa: BLE001 - pre-validation should prevent this
            code, message = error_code_for(exc), str(exc)
            for i in solvable:
                results[i] = _item_error(code, message)
        else:
            for i, plan in zip(solvable, plans):
                results[i] = result_to_dict(
                    plan, allocation=bool(items[i].get("allocation", True))
                )
        solve_s = time.perf_counter() - t1
    timing = {
        "shard": shard_id,
        "started": started,
        "seconds": time.perf_counter() - t0,
        "solve_seconds": solve_s,
        "sizes": len(solvable),
    }
    return {"ok": True, "results": results, "timing": timing}


class _ShardInbox:
    """One shard's admission front: a weighted-fair queue, parent-side.

    Thread workers read the :class:`WFQueue` directly.  Process workers
    cannot (the scheduler state lives in the parent), so a feeder thread
    pumps scheduled jobs into a 1-slot ``mp.Queue`` transport — the WFQ
    order is preserved up to that single slot of reordering slack, and
    the admission bound still lives entirely in the WFQ.
    """

    def __init__(self, shard_id: int, depth: int, *, transport=None):
        self.wfq = WFQueue(depth)
        self._transport = transport
        self._feeder = None
        if transport is not None:
            self._feeder = threading.Thread(
                target=self._feed,
                name=f"repro-serve-feeder-{shard_id}",
                daemon=True,
            )
            self._feeder.start()

    @property
    def worker_end(self):
        """What the worker's ``inbox.get()`` reads from."""
        return self._transport if self._transport is not None else self.wfq

    def _feed(self) -> None:
        while True:
            item = self.wfq.get()
            self._transport.put(item)
            if item is None:
                return

    def put_nowait(self, msg, *, tenant: str = "", weight: float = 1.0, cost: float = 1.0) -> None:
        self.wfq.put_nowait(msg, tenant=tenant, weight=weight, cost=cost)

    def put_control(self, msg, *, timeout: float | None = None) -> None:
        """Blocking control-plane put on the reserved control lane.

        Control traffic has its own per-tenant slots, so a data-plane
        flood can never starve a registration out of admission.
        """
        self.wfq.put(msg, tenant=CONTROL_TENANT, cost=0.0, timeout=timeout)

    def put_urgent(self, msg) -> None:
        self.wfq.put_urgent(msg)

    def put_sentinel(self) -> None:
        self.wfq.put_sentinel(None)

    def qsize(self) -> int:
        depth = self.wfq.qsize()
        if self._transport is not None:
            try:
                depth += self._transport.qsize()
            except NotImplementedError:  # pragma: no cover - macOS mp.Queue
                pass
        return depth

    def backlogs(self) -> dict[str, int]:
        return self.wfq.backlogs()

    def drain_pending(self) -> list:
        return self.wfq.drain_pending()


class ShardPool:
    """Fixed pool of worker shards behind bounded, fair inboxes.

    Parameters
    ----------
    shards:
        Number of workers.  Fingerprints are assigned by consistent
        hashing, so a future resize moves only ``~1/shards`` of them.
    mode:
        ``"thread"`` (default) or ``"process"`` — see the module notes.
    queue_depth:
        Per-shard, **per-tenant** inbox bound, in *jobs* (a job is one
        coalesced batch).  This is the admission limit: a tenant's
        submissions beyond it are shed; other tenants are unaffected.
    warm_tier_size:
        Entry bound of the pool-wide
        :class:`~repro.planner.tiered.WarmPlanStore` behind every
        shard's plan cache.
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        mode: str = "thread",
        queue_depth: int = 128,
        warm_tier_size: int = 4096,
    ):
        if shards <= 0:
            raise ConfigurationError(f"shards must be positive, got {shards}")
        if queue_depth <= 0:
            raise ConfigurationError(f"queue_depth must be positive, got {queue_depth}")
        if mode not in ("thread", "process"):
            raise ConfigurationError(
                f"unknown shard mode {mode!r}; expected 'thread' or 'process'"
            )
        self._mode = mode
        self._shards = shards
        self._queue_depth = queue_depth
        self._ring = HashRing(range(shards))
        self._job_seq = itertools.count(1)
        self._futures: dict[int, Future] = {}
        self._futures_lock = threading.Lock()
        self._closed = False
        self._submit_lock = threading.Lock()
        # Serving fingerprint -> latest spec, for rebuilding a restarted
        # worker's planners (register/refit keep it current).
        self._specs: dict[str, dict] = {}
        self._manager = None

        registry = obs.get_registry()
        self._depth_gauges = [
            registry.gauge(
                "serve.shard.queue_depth",
                labels={"shard": str(i)},
                help="jobs waiting in this shard's inbox",
            )
            for i in range(shards)
        ]
        self._jobs_counter = registry.counter(
            "serve.shard.jobs", help="jobs accepted across all shards"
        )
        self._restarts_counter = registry.counter(
            "serve.shard.restarts", help="in-place worker restarts"
        )

        if mode == "thread":
            self._warm = WarmPlanStore.local(warm_tier_size)
            self._inboxes: list[_ShardInbox] = [
                _ShardInbox(i, queue_depth) for i in range(shards)
            ]
            self._outbox: Any = queue.Queue()
            self._ctx = None
        else:
            ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
            self._ctx = ctx
            self._manager = WarmStoreManager(ctx=ctx)
            self._manager.start()
            self._warm = WarmPlanStore.shared(self._manager, warm_tier_size)
            self._inboxes = [
                _ShardInbox(i, queue_depth, transport=ctx.Queue(maxsize=1))
                for i in range(shards)
            ]
            self._outbox = ctx.Queue()
        self._workers: list[Any] = [
            self._spawn_worker(i, initial_specs=[]) for i in range(shards)
        ]
        self._collector = threading.Thread(
            target=self._collect, name="repro-serve-collector", daemon=True
        )
        self._collector.start()

    def _spawn_worker(self, shard: int, *, initial_specs: list) -> Any:
        args = (
            shard,
            self._inboxes[shard].worker_end,
            self._outbox,
            self._warm,
            initial_specs,
        )
        if self._mode == "thread":
            worker = threading.Thread(
                target=worker_loop,
                args=args,
                name=f"repro-serve-shard-{shard}",
                daemon=True,
            )
        else:
            worker = self._ctx.Process(
                target=worker_loop,
                args=args,
                name=f"repro-serve-shard-{shard}",
                daemon=True,
            )
        worker.start()
        return worker

    # -- routing --------------------------------------------------------
    @property
    def shards(self) -> int:
        return self._shards

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def queue_depth(self) -> int:
        return self._queue_depth

    def shard_for(self, fingerprint: str) -> int:
        """The shard owning a fleet fingerprint (stable across restarts)."""
        return int(self._ring.node_for(fingerprint))

    def queue_depths(self) -> list[int]:
        """Approximate jobs waiting per shard (for gauges and health)."""
        depths = []
        for i, inbox in enumerate(self._inboxes):
            try:
                depth = inbox.qsize()
            except NotImplementedError:  # pragma: no cover - macOS mp.Queue
                depth = -1
            depths.append(depth)
            self._depth_gauges[i].set(max(depth, 0))
        return depths

    # -- submission -----------------------------------------------------
    def _new_job(self) -> tuple[int, Future]:
        job_id = next(self._job_seq)
        fut: Future = Future()
        with self._futures_lock:
            self._futures[job_id] = fut
        return job_id, fut

    def _drop_job(self, job_id: int) -> None:
        with self._futures_lock:
            self._futures.pop(job_id, None)

    def submit_batch(
        self,
        fingerprint: str,
        items: Sequence[Mapping],
        *,
        tenant: str = "",
        weight: float = 1.0,
    ) -> Future | None:
        """Enqueue one coalesced batch on the owning shard.

        Returns a :class:`concurrent.futures.Future` resolving to the
        worker's batch payload, or ``None`` when the *tenant's* lane in
        the shard inbox is full — the caller sheds the batch with
        ``overloaded`` responses.  Raises :class:`ConfigurationError`
        once the pool is closed.

        ``tenant``/``weight`` place the job in the weighted fair queue
        (cost = batch size, so fairness is measured in plans, not jobs).
        The payload carries one verdict per item under ``"results"`` and
        the batch's ``"timing"`` record (see :func:`_solve_batch`).
        """
        if self._closed:
            raise ConfigurationError("the shard pool is closed")
        shard = self.shard_for(fingerprint)
        job_id, fut = self._new_job()
        msg = (_KIND_BATCH, job_id, fingerprint, [dict(it) for it in items])
        try:
            self._inboxes[shard].put_nowait(
                msg,
                tenant=tenant,
                weight=weight,
                cost=float(max(1, len(items))),
            )
        except queue.Full:
            self._drop_job(job_id)
            return None
        self._jobs_counter.inc()
        self._depth_gauges[shard].set(max(self._safe_depth(shard), 0))
        return fut

    def register(self, spec: Mapping, fingerprint: str, *, timeout: float = 30.0) -> Future:
        """Ship a fleet spec to the shard owning ``fingerprint``.

        Registration is control-plane traffic: it blocks (up to
        ``timeout``) instead of shedding, because losing a registration
        would orphan every subsequent query for the fleet.
        """
        if self._closed:
            raise ConfigurationError("the shard pool is closed")
        shard = self.shard_for(fingerprint)
        job_id, fut = self._new_job()
        try:
            self._inboxes[shard].put_control(
                (_KIND_REGISTER, job_id, dict(spec)), timeout=timeout
            )
        except queue.Full:
            self._drop_job(job_id)
            raise ConfigurationError(
                f"shard {shard} did not accept a fleet registration within {timeout}s"
            ) from None
        self._specs[fingerprint] = dict(spec)
        return fut

    def refit(
        self,
        fingerprint: str,
        spec: Mapping,
        *,
        old_fingerprint: str,
        timeout: float = 30.0,
    ) -> Future:
        """Swap a served fleet's model for a refitted spec, in place.

        ``fingerprint`` is the *serving* fingerprint clients address the
        fleet by (routing stays put on its shard); ``old_fingerprint``
        names the retired model whose plan-cache entries the worker
        invalidates — exactly those, nothing else.  Control-plane
        traffic like :meth:`register`: blocks instead of shedding.
        """
        if self._closed:
            raise ConfigurationError("the shard pool is closed")
        shard = self.shard_for(fingerprint)
        job_id, fut = self._new_job()
        try:
            self._inboxes[shard].put_control(
                (_KIND_REFIT, job_id, str(fingerprint), dict(spec), str(old_fingerprint)),
                timeout=timeout,
            )
        except queue.Full:
            self._drop_job(job_id)
            raise ConfigurationError(
                f"shard {shard} did not accept a fleet refit within {timeout}s"
            ) from None
        self._specs[str(fingerprint)] = dict(spec)
        return fut

    def stats_all(self, *, timeout: float = 5.0) -> list[Future]:
        """One stats future per shard (planner/cache counters, shard-local)."""
        futures = []
        for shard in range(self._shards):
            job_id, fut = self._new_job()
            try:
                self._inboxes[shard].put_control((_KIND_STATS, job_id), timeout=timeout)
            except queue.Full:
                self._drop_job(job_id)
                failed: Future = Future()
                failed.set_result(
                    _item_error("overloaded", f"shard {shard} queue full for stats")
                )
                fut = failed
            futures.append(fut)
        return futures

    def _safe_depth(self, shard: int) -> int:
        try:
            return self._inboxes[shard].qsize()
        except NotImplementedError:  # pragma: no cover - macOS mp.Queue
            return 0

    # -- response collection --------------------------------------------
    def _collect(self) -> None:
        exits = 0
        while exits < self._shards:
            job_id, payload = self._outbox.get()
            if job_id == _SHARD_EXIT:
                exits += 1
                continue
            with self._futures_lock:
                fut = self._futures.pop(job_id, None)
            if fut is not None and not fut.done():
                fut.set_result(payload)

    # -- restart --------------------------------------------------------
    def restart_shard(self, shard: int, *, timeout: float = 30.0) -> None:
        """Recycle one worker in place, preserving its queued backlog.

        An urgent exit marker overtakes everything queued; the old worker
        finishes its in-flight job, sees the marker and leaves quietly
        (no collector exit).  The replacement re-registers the shard's
        current fleet specs, re-warms its plan caches from the shared
        store, and drains the *same* inbox — queued jobs and their
        futures survive the swap.
        """
        if not 0 <= shard < self._shards:
            raise ConfigurationError(f"no such shard {shard!r}")
        if self._closed:
            raise ConfigurationError("the shard pool is closed")
        old = self._workers[shard]
        self._inboxes[shard].put_urgent((_KIND_EXIT, 0))
        old.join(timeout=timeout)
        if old.is_alive():
            if self._mode == "process":  # pragma: no cover - wedged worker
                old.terminate()
                old.join(timeout=5.0)
            else:  # pragma: no cover - wedged worker
                raise ConfigurationError(
                    f"shard {shard} did not stop within {timeout}s"
                )
        specs = [
            (fp, dict(spec))
            for fp, spec in self._specs.items()
            if self.shard_for(fp) == shard
        ]
        self._workers[shard] = self._spawn_worker(shard, initial_specs=specs)
        self._restarts_counter.inc()

    def warm_tier_stats(self) -> dict:
        """Pool-level view of the shared warm store (for ``stats``)."""
        return {
            "enabled": True,
            "entries": len(self._warm),
            "maxsize": self._warm.maxsize,
        }

    @property
    def warm_store(self) -> WarmPlanStore:
        return self._warm

    def tenant_backlogs(self) -> dict[str, int]:
        """Queued jobs per tenant across every shard inbox."""
        totals: dict[str, int] = {}
        for inbox in self._inboxes:
            for tenant, depth in inbox.backlogs().items():
                if tenant == CONTROL_TENANT:
                    continue
                totals[tenant] = totals.get(tenant, 0) + depth
        return totals

    # -- lifecycle ------------------------------------------------------
    def close(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool.

        ``drain=True`` (the default) seals the inboxes, lets every queued
        job finish and joins the workers — in-flight futures resolve
        normally.  ``drain=False`` abandons queued work: pending futures
        are failed with a ``shutting_down`` payload and process workers
        are terminated.
        """
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
        if not drain:
            self._abandon()
        for inbox in self._inboxes:
            # The sentinel is delivered only after every queued job, which
            # is exactly the graceful-drain contract.
            inbox.put_sentinel()
        deadline = time.time() + timeout
        for w in self._workers:
            w.join(timeout=max(0.0, deadline - time.time()))
        self._collector.join(timeout=max(0.1, deadline - time.time()))
        if self._mode == "process":
            for w in self._workers:
                if w.is_alive():  # pragma: no cover - only on drain timeout
                    w.terminate()
        self._abandon()  # anything still unresolved (worker died) fails loudly
        if self._manager is not None:
            try:
                self._manager.shutdown()
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass

    def _abandon(self) -> None:
        with self._futures_lock:
            pending = list(self._futures.values())
            self._futures.clear()
        for fut in pending:
            if not fut.done():
                fut.set_result(
                    _item_error("shutting_down", "the shard pool was closed")
                )
        if self._mode == "thread":
            # Failed-fast shutdown: clear queued jobs so the sentinel is
            # reached immediately (their futures were just resolved).
            for inbox in self._inboxes:
                inbox.drain_pending()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
