"""The layer pass: per-layer metrics, taken after a workload's timed phase.

Nothing here feeds the end-to-end numbers.  Three sources:

* the span trees the servers already keep at ``/debug/traces`` — the
  ``serve.plan`` root, its ``serve.shard.batch`` child and that batch's
  ``serve.shard.solve`` child give front-end, shard and solve times; the
  router's ``cluster.attempt`` spans joined on trace id give the hop;
* the servers' ``stats`` op (cache, warm-start, idempotency, refit and
  routing counters);
* timed calls into each module's public functions, on inputs captured
  from the same workload.

Metrics of a layer the workload never runs (the router on ``solve``, say)
read 0.  Each metric names, in README.md, the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import time
from itertools import islice

import numpy as np

from common import fresh_sizes, median, rng_for, table2_models
from workloads import ServeHot, observe_records

#: Every metric of the layer pass, with its unit.  BENCHMARK.json declares
#: all but the times that are structurally 0 on some workload (spans of a
#: server ``solve`` never starts, the router hop off ``mixed_routed``,
#: ``observe`` latency where nothing writes): a time that reads the same
#: on every run says nothing.  The rest are printed and recorded all the same.
LAYER_UNITS = {
    "core.solve_cold_ms": "ms",
    "core.allocations_many_us": "us",
    "core.iterations_per_plan": "count",
    "planner.fleet_build_ms": "ms",
    "planner.plan_warm_ms": "ms",
    "planner.plan_hit_us": "us",
    "planner.plan_many_item_ms": "ms",
    "planner.cache_hit_ratio": "ratio",
    "planner.warm_start_ratio": "ratio",
    "planner.warm_store_put_us": "us",
    "protocol.decode_us": "us",
    "protocol.parse_us": "us",
    "protocol.encode_us": "us",
    "protocol.response_bytes": "bytes",
    "tenancy.quota_acquire_us": "us",
    "tenancy.wfq_put_get_us": "us",
    "service.frontend_ms": "ms",
    "service.batch_size_mean": "count",
    "service.idempotent_hit_ratio": "ratio",
    "shard.batch_ms": "ms",
    "shard.solve_ms": "ms",
    "shard.overhead_ms": "ms",
    "shard.roundtrip_thread_ms": "ms",
    "shard.roundtrip_process_ms": "ms",
    "server.transport_ms": "ms",
    "cluster.hop_ms": "ms",
    "cluster.fallback_ratio": "ratio",
    "model.refits_applied": "count",
    "model.plans_invalidated": "count",
    "model.refit_pass_ms": "ms",
    "obs.tracing_cost_pct": "%",
    "observe_p50_ms": "ms",
    "observe_p90_ms": "ms",
}

#: The batch size timed for planner.plan_many_item_ms when no server
#: formed batches (``solve``): the served workloads' concurrency.
DEFAULT_BATCH = 32


def _per_call(fn, inputs, repeats: int) -> float:
    """Median over ``repeats`` passes of the mean seconds per call."""
    passes = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for x in inputs:
            fn(x)
        passes.append((time.perf_counter() - t0) / len(inputs))
    return median(passes)


def _share(part: float, rest: float) -> float:
    return part / (part + rest) if part + rest else 0.0


def _child(spans: dict, name: str) -> dict | None:
    return next((c for c in spans.get("children", ()) if c["name"] == name), None)


def _served_plans(traces: list[dict], root: str) -> list[dict]:
    return [t for t in traces
            if t.get("op") == "plan" and t.get("status") == "ok"
            and t["spans"]["name"] == root]


def _trace_metrics(wl, m: dict, s: dict) -> None:
    """Self times from the flight recorders' span trees."""
    node = wl.node if hasattr(wl, "node") else wl.server
    plans = _served_plans(node.traces(), "serve.plan")
    front, batch, solve, overhead, batches = [], [], [], [], {}
    for trace in plans:
        root = trace["spans"]
        shard = _child(root, "serve.shard.batch")
        if shard is None:
            continue
        solved = _child(shard, "serve.shard.solve")
        solve_s = solved["seconds"] if solved else 0.0
        front.append(root["seconds"] - shard["seconds"])
        batch.append(shard["seconds"])
        solve.append(solve_s)
        overhead.append(shard["seconds"] - solve_s)
        batches[shard.get("span_id")] = shard["attrs"].get("items", 0)
    m["service.frontend_ms"] = median(front) * 1e3
    m["shard.batch_ms"] = median(batch) * 1e3
    m["shard.solve_ms"] = median(solve) * 1e3
    m["shard.overhead_ms"] = median(overhead) * 1e3
    m["service.batch_size_mean"] = float(np.mean(list(batches.values()))) if batches else 0.0
    s["service.frontend_ms"] = len(front)
    s["service.batch_size_mean"] = len(batches)

    front_door = plans
    if hasattr(wl, "router"):
        routed = _served_plans(wl.router.traces(), "cluster.plan")
        node_seconds = {t["trace_id"]: t["seconds"] for t in plans}
        hops = []
        for trace in routed:
            attempt = _child(trace["spans"], "cluster.attempt")
            if attempt is not None and trace["trace_id"] in node_seconds:
                hops.append(attempt["seconds"] - node_seconds[trace["trace_id"]])
        m["cluster.hop_ms"] = median(hops) * 1e3
        s["cluster.hop_ms"] = len(hops)
        front_door = routed
    # The client's round trip minus the front span, joined on trace id.
    round_trips = wl.capture["round_trips"]
    transport = [round_trips[t["trace_id"]] - t["seconds"]
                 for t in front_door if t["trace_id"] in round_trips]
    m["server.transport_ms"] = median(transport) * 1e3
    s["server.transport_ms"] = len(transport)


def _stats_metrics(wl, m: dict) -> None:
    """Counters from the ``stats`` op (through the router on mixed_routed)."""
    if hasattr(wl, "router"):
        routed = wl._stats(wl.router)
        node = next(iter(routed["nodes"].values()))
        router = routed["router"]
        m["cluster.fallback_ratio"] = _share(router["routed_fallback"], router["routed_primary"])
        fleets = (wl.big_fp, wl.small_fp)
    else:
        node = wl._stats(wl.server)
        fleets = (wl.fp,)
    hits = misses = warm = cold = 0
    for shard in node["shards"]:
        for fp, row in shard["fleets"].items():
            if fp in fleets:
                hits, misses = hits + row["cache_hits"], misses + row["cache_misses"]
                warm, cold = warm + row["warm_plans"], cold + row["cold_plans"]
    m["planner.cache_hit_ratio"] = _share(hits, misses)
    m["planner.warm_start_ratio"] = _share(warm, cold)
    idem = node["tenancy"]["idempotency"]
    m["service.idempotent_hit_ratio"] = _share(idem["hits"] + idem["coalesced"], idem["misses"])
    m["model.refits_applied"] = float(node["refit"]["counters"]["applied"])
    m["model.plans_invalidated"] = float(node["refit"]["invalidated"])


def _core_and_planner(wl, m: dict, s: dict, sizes: list[int], quick: bool) -> None:
    from repro.core.bisection import partition_bisection
    from repro.planner import Fleet, Planner
    from repro.planner.tiered import WarmPlanStore

    cap = wl.capture
    sfs = cap["sfs"]
    per_family = []
    for name, family in cap["families"].items():
        family_sizes = sizes if name == "pwl" else list(islice(
            fresh_sizes(rng_for(wl.seed, f"layers-{name}"), sum(sf.max_size for sf in family)),
            len(sizes),
        ))
        per_family.append(_per_call(
            lambda n, family=family: partition_bisection(n, family),
            family_sizes[:2 if quick else 5], 1,
        ))
    m["core.solve_cold_ms"] = median(per_family) * 1e3

    fleet = Fleet(sfs)
    slopes = np.asarray(cap["slopes"][:64], dtype=float)
    m["core.allocations_many_us"] = _per_call(
        fleet.pack.allocations_many, [slopes] * 5, 7
    ) * 1e6
    s["core.allocations_many_us"] = len(slopes)
    m["core.iterations_per_plan"] = float(np.mean(cap["iterations"]))
    s["core.iterations_per_plan"] = len(cap["iterations"])
    m["planner.fleet_build_ms"] = _per_call(lambda _: Fleet(sfs), [0], 5) * 1e3

    fresh = fresh_sizes(rng_for(wl.seed, "layers-fresh"), fleet.capacity)
    planner = Planner(fleet)
    for n in sizes[:16]:
        planner.plan(n)
    warm_sizes = list(islice(fresh, 4 if quick else 16))
    m["planner.plan_warm_ms"] = median(
        [_per_call(planner.plan, [n], 1) for n in warm_sizes]
    ) * 1e3
    m["planner.plan_hit_us"] = _per_call(planner.plan, sizes[:16] * 20, 5) * 1e6
    batch = max(1, round(m.get("service.batch_size_mean") or DEFAULT_BATCH))
    m["planner.plan_many_item_ms"] = median([
        _per_call(planner.plan_many, [list(islice(fresh, batch))], 1) / batch
        for _ in range(1 if quick else 3)
    ]) * 1e3
    s["planner.plan_many_item_ms"] = batch

    # A full 4096-entry process-shared store, as serve_cold runs it.
    value = dataclasses.replace(planner.plan(sizes[0]), region=None)
    bound = 4096
    keys = [(fleet.fingerprint, n, "bisection", "greedy", "tangent")
            for n in islice(fresh, bound + 30)]
    with mp.get_context("spawn").Manager() as manager:
        store = WarmPlanStore(
            manager.dict({k: value for k in keys[:bound]}), manager.Lock(), maxsize=bound
        )
        m["planner.warm_store_put_us"] = median(
            [_per_call(lambda k: store.put(k, value), [k], 1) for k in keys[bound:]]
        ) * 1e6


def _protocol_and_tenancy(wl, m: dict, s: dict) -> None:
    from repro.serve import QuotaManager, WFQueue, decode_frame, encode_frame, parse_request

    frames = wl.capture["frames"]
    lines = [encode_frame(request) for request, _ in frames]
    decoded = [decode_frame(line) for line in lines]
    responses = [response for _, response in frames]
    m["protocol.decode_us"] = _per_call(decode_frame, lines, 7) * 1e6
    m["protocol.parse_us"] = _per_call(parse_request, decoded, 7) * 1e6
    m["protocol.encode_us"] = _per_call(encode_frame, responses, 7) * 1e6
    m["protocol.response_bytes"] = float(np.mean([len(encode_frame(r)) for r in responses]))
    s["protocol.decode_us"] = len(frames)

    quotas = QuotaManager(wl.capture.get("tenancy"))
    tenants = (wl.capture.get("tenants") or [""])[:1000]
    m["tenancy.quota_acquire_us"] = _per_call(
        lambda t: quotas.try_acquire(t, 1.0), tenants, 7
    ) * 1e6
    queue = WFQueue(128)
    chunks = [tenants[i:i + 8] for i in range(0, len(tenants) - 7, 8)] or [tenants]

    def put_get(chunk) -> None:
        for t in chunk:
            queue.put_nowait(t, tenant=t, weight=quotas.weight_for(t))
        for _ in chunk:
            queue.get_nowait()

    m["tenancy.wfq_put_get_us"] = _per_call(put_get, chunks, 7) / len(chunks[0]) * 1e6


def _shard_roundtrips(wl, m: dict, sizes: list[int], quick: bool) -> None:
    """A cached 32-plan batch with allocations through a ShardPool, per mode."""
    from repro.planner import Fleet
    from repro.serve import ShardPool, fleet_spec_from_speed_functions

    sfs = wl.capture["sfs"]
    fingerprint = Fleet(sfs).fingerprint
    spec = fleet_spec_from_speed_functions(sfs, name="bench-layers")
    items = [{"n": n, "deadline": None, "allocation": True} for n in (sizes * 32)[:32]]
    for mode in ("process", "thread"):
        pool = ShardPool(2, mode=mode)
        try:
            pool.register(spec, fingerprint).result(timeout=60)
            pool.submit_batch(fingerprint, items).result(timeout=60)
            m[f"shard.roundtrip_{mode}_ms"] = _per_call(
                lambda _: pool.submit_batch(fingerprint, items).result(timeout=60),
                [0], 3 if quick else 10,
            ) * 1e3
        finally:
            pool.close()


def _refit_pass(wl, m: dict) -> None:
    from repro.model import ModelBuildOptions, OnlineBandRefitter
    from repro.obs import Observation
    from repro.serve import OnlineRefitConfig

    window = wl.capture.get("drift_window") or observe_records(
        table2_models(), 0, 128, rng_for(wl.seed, "observe"), drift=True
    )
    records = [Observation.from_wire(r) for r in window]
    config = OnlineRefitConfig()
    refitter = OnlineBandRefitter(
        wl.capture["sfs"], options=ModelBuildOptions(eps=config.eps),
        min_escaped=config.min_escaped,
    )
    m["model.refit_pass_ms"] = _per_call(refitter.refit, [records], 5) * 1e3


def layer_pass(wl) -> tuple[dict[str, float], dict[str, int]]:
    """Every per-layer metric for one workload, and the samples behind them."""
    m = dict.fromkeys(LAYER_UNITS, 0.0)
    s: dict[str, int] = {}
    quick = wl.smoke
    if wl.children:
        _trace_metrics(wl, m, s)
        _stats_metrics(wl, m)
    else:
        m["planner.cache_hit_ratio"] = _share(*wl.capture["cache"])
        m["planner.warm_start_ratio"] = _share(*wl.capture["warm"])
    if isinstance(wl, ServeHot):
        m["obs.tracing_cost_pct"] = wl.tracing_cost_pct(0.3 if quick else 1.5)
    if "observe_ms" in wl.capture:
        m["observe_p50_ms"], m["observe_p90_ms"], s["observe_p50_ms"] = wl.capture["observe_ms"]
    sizes = list(wl.capture["sizes"])
    _core_and_planner(wl, m, s, sizes, quick)
    _protocol_and_tenancy(wl, m, s)
    _shard_roundtrips(wl, m, sizes, quick)
    _refit_pass(wl, m)
    return m, s
