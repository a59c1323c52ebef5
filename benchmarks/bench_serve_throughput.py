"""Serving throughput: the batched, sharded service vs a naive loop.

The acceptance gate for :mod:`repro.serve`: on the p=1080 synthetic
fleet (the testbed's 12 machines tiled, as in figure 21), the serving
path — plan-cache hits, bisection on the shared pack and micro-batched
``plan_many`` sweeps behind one TCP front-end — must sustain at least
**5x** the plans/sec of a naive one-request-one-solve loop that calls
the paper's partitioner cold for every request, at client concurrency
32, with zero shed requests (the offered load sits below the admission
limit) and zero errors.

The workload repeats ``DISTINCT`` problem sizes across ``REQUESTS``
requests — the realistic shape for a scheduler asking about the same
fleet all day — which is exactly what the plan cache and the batcher
exploit.  ``REPRO_BENCH_SMOKE=1`` shrinks the fleet and the request
count so the file runs in seconds.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

from repro.core.partition import partition
from repro.experiments import ascii_table, tile_speed_functions
from repro.planner import Fleet
from repro.serve import ServeClient, ServeConfig, run_load, start_in_thread

SMOKE = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))

P = 120 if SMOKE else 1080
REQUESTS = 96 if SMOKE else 512
DISTINCT = 16 if SMOKE else 64
CONCURRENCY = 32
SPEEDUP_GATE = 5.0

#: Multi-tenant fairness gates (see ``measure_multitenant``): under a
#: 10:1 heavy:light zipfian skew the light tenant's p99 must stay
#: within this factor of its *solo* p99, it must lose zero requests
#: (the starvation-freedom contract of the weighted fair queue), and a
#: server with tenancy *configured but idle* may cost at most this
#: fraction of a served single-tenant request (budget-vs-measured, the
#: same idiom as the tracing and adaptation overhead gates).
TENANT_P99_LIMIT = 3.0
TENANT_IDLE_OVERHEAD_LIMIT = 0.03
HEAVY_SKEW = 10
LIGHT_REQUESTS = 12 if SMOKE else 48

#: Cluster topology gates (see ``measure_cluster_throughput``): the
#: router may cost at most this fraction of single-node throughput, and
#: the routed 3-fleet aggregate must stay within this gap of the
#: direct-to-nodes aggregate.
ROUTER_OVERHEAD_LIMIT = 0.15
AGGREGATE_GAP_LIMIT = 0.10
CLUSTER_NODES = 3
CLUSTER_REQUESTS = 48 if SMOKE else 192


def _workload(capacity: int) -> list[int]:
    """REQUESTS sizes cycling over DISTINCT distinct values, shuffled
    deterministically by a coprime stride so batches mix sizes."""
    pool = [capacity // (DISTINCT + 2) * (k + 1) for k in range(DISTINCT)]
    return [pool[(k * 7) % DISTINCT] for k in range(REQUESTS)]


#: Disjoint measurement phases per cluster run (see ``_phase_sizes``).
_PHASES = 8


def _phase_sizes(capacity: int, count: int, phase: int) -> list[int]:
    """``count`` distinct sizes, disjoint across ``_PHASES`` phases.

    Every request is a distinct size the server has never planned, so a
    measured phase is pure solve work (``plan_many`` sweeps, no cache
    hits) — the same amount of it on both sides of each gate.  The
    per-phase sets are disjoint so an earlier phase cannot warm the plan
    cache for a later one; the callers still interleave direct/routed
    passes and take best-of per side, against machine-load drift.
    """
    lo, span = capacity // 10, int(capacity * 0.8)
    sizes = [
        lo + (k * _PHASES + phase) * span // (_PHASES * count)
        for k in range(count)
    ]
    return [sizes[(k * 7) % count] for k in range(count)]


def measure_cluster_throughput(
    *,
    p: int = P,
    requests: int = CLUSTER_REQUESTS,
    concurrency: int = CONCURRENCY,
) -> dict:
    """Router + 3 node processes vs the same nodes driven directly.

    Two comparisons, both empirical and interleaved on the same machine
    so CPU-speed drift cancels:

    * **single** — one fleet's workload straight at its primary node,
      then the identical-shape workload through the router (the router
      hop is the only difference);
    * **aggregate** — all three fleets at once, one per node (distinct
      ring primaries by construction), three concurrent loads straight
      at the owning nodes vs the same three loads through the one
      router (queue-based load leveling must not serialize them).

    Returns the four plans/sec rates plus total error counts; the gates
    live in the callers (the pytest test below and ``perf_guard.py``).
    """
    from repro.cluster import (
        ClusterMembership,
        RouterConfig,
        start_process_node,
        start_router_in_thread,
    )
    from repro.experiments import build_network_models
    from repro.machines import table2_network

    models = build_network_models(table2_network(), "matmul")
    nodes = [start_process_node(f"bench-n{i}") for i in range(CLUSTER_NODES)]
    router = start_router_in_thread(
        RouterConfig(replication=2), [n.info for n in nodes]
    )
    try:
        # Pick CLUSTER_NODES tiled fleets whose ring primaries are
        # distinct nodes, mirroring the router's membership math locally
        # (same blake2b ring, same vnode count).
        ring = ClusterMembership(replication=1)
        for node in nodes:
            ring.add(node.info)
        fleets = []
        taken: set[str] = set()
        q = p
        while len(fleets) < CLUSTER_NODES:
            sfs = tile_speed_functions(models, q)
            fleet = Fleet(sfs, name=f"bench-cluster-p{q}")
            primary = ring.replicas_for(fleet.fingerprint)[0]
            if primary not in taken:
                taken.add(primary)
                owner = next(n for n in nodes if n.node_id == primary)
                fleets.append((fleet, sfs, owner))
            q += 1
        with ServeClient(router.host, router.port) as client:
            for fleet, sfs, _ in fleets:
                client.register_fleet(sfs, name=fleet.name)

        errors = 0

        def load(host: str, port: int, fleet: Fleet, phase: int):
            nonlocal errors
            report = run_load(
                host, port, fleet.fingerprint,
                _phase_sizes(int(fleet.capacity), requests, phase),
                concurrency=concurrency, connections=8, allocation=False,
            )
            errors += report.error_count
            return report

        fleet0, _, owner0 = fleets[0]

        def aggregate(phase: int, *, use_router: bool) -> float:
            reports: list = [None] * len(fleets)

            def drive(i: int) -> None:
                fleet, _, owner = fleets[i]
                host, port = (
                    (router.host, router.port) if use_router
                    else (owner.host, owner.port)
                )
                reports[i] = load(host, port, fleet, phase)

            threads = [
                threading.Thread(target=drive, args=(i,))
                for i in range(len(fleets))
            ]
            begin = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = time.perf_counter() - begin
            return sum(r.ok for r in reports) / wall

        # Interleave direct/routed passes and keep the best rate per
        # side: interleaving hands any machine-load drift to both sides
        # equally.
        direct_single = routed_single = 0.0
        for pass_no in range(2):
            direct_single = max(
                direct_single,
                load(owner0.host, owner0.port, fleet0, pass_no * 2).plans_per_second,
            )
            routed_single = max(
                routed_single,
                load(router.host, router.port, fleet0, pass_no * 2 + 1).plans_per_second,
            )
        direct_aggregate = routed_aggregate = 0.0
        for pass_no in range(2, 4):
            direct_aggregate = max(
                direct_aggregate, aggregate(pass_no * 2, use_router=False)
            )
            routed_aggregate = max(
                routed_aggregate, aggregate(pass_no * 2 + 1, use_router=True)
            )
        return {
            "p": p,
            "requests": requests,
            "concurrency": concurrency,
            "direct_single": direct_single,
            "routed_single": routed_single,
            "direct_aggregate": direct_aggregate,
            "routed_aggregate": routed_aggregate,
            "errors": errors,
        }
    finally:
        router.stop()
        for node in nodes:
            try:
                node.stop()
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass


def _zipf_sizes(capacity: int, count: int) -> list[int]:
    """``count`` sizes drawn zipfian over the ``DISTINCT`` workload pool.

    Rank r is drawn with frequency proportional to 1/(r+1) via a
    golden-ratio low-discrepancy sequence — deterministic, no RNG — so
    the heavy tenant's traffic has the classic skewed popularity shape
    (a few hot sizes dominating a long tail) every run, identically.
    """
    pool = [capacity // (DISTINCT + 2) * (k + 1) for k in range(DISTINCT)]
    cum: list[float] = []
    total = 0.0
    for rank in range(DISTINCT):
        total += 1.0 / (rank + 1)
        cum.append(total)
    sizes = []
    for k in range(count):
        u = ((k + 1) * 0.6180339887498949) % 1.0 * total
        sizes.append(pool[bisect.bisect_left(cum, u)])
    return sizes


def measure_multitenant(*, p: int = P) -> dict:
    """Weighted fairness under skew, and the cost of idle tenancy.

    Two interleaved comparisons on one machine (drift cancels):

    * **fairness** — on a server with per-tenant weights (light=8,
      heavy=1) and small batches, a light tenant's workload is timed
      *solo* and then again while a heavy tenant floods the same fleet
      with ``HEAVY_SKEW``x more zipfian-distributed requests.  Passes
      alternate solo/mixed and keep the best p99 per side.
    * **overhead** — the per-request work that *only* runs when tenancy
      is configured (quota admission, weight lookup) is timed directly
      over thousands of calls and expressed as a fraction of a real
      served request, bounding the throughput cost of idle tenancy.

    Returns the raw numbers; the gates live in the callers (the pytest
    test below and ``perf_guard.py``).
    """
    from repro.experiments import build_network_models
    from repro.machines import table2_network
    from repro.serve.tenancy import QuotaManager, TenancyConfig, TenantQuota

    models = build_network_models(table2_network(), "matmul")
    sfs = tile_speed_functions(models, p)
    fleet = Fleet(sfs, name=f"bench-tenants-p{p}")
    capacity = int(fleet.capacity)

    light_sizes = [capacity // 12 * (k % 6 + 1) for k in range(LIGHT_REQUESTS)]
    heavy_sizes = _zipf_sizes(capacity, HEAVY_SKEW * LIGHT_REQUESTS)
    tenancy = TenancyConfig(
        tenants={
            "light": TenantQuota(weight=8.0),
            "heavy": TenantQuota(weight=1.0),
        }
    )

    # -- fairness: small batches so one tenant cannot hog a whole shard
    # turn; the weighted fair queue interleaves lanes between batches.
    fair = ServeConfig(
        shards=2, max_batch=8, queue_depth=256, tenancy=tenancy,
    )
    solo_p99 = mixed_p99 = float("inf")
    heavy_rate = 0.0
    light_errors: dict[str, int] = {}
    light_lost = 0
    with start_in_thread(fair) as handle:
        with ServeClient(handle.host, handle.port) as client:
            fp = client.register_fleet(sfs, name=fleet.name)["fingerprint"]
        # Untimed warm-up: both workloads' sizes enter the plan cache so
        # the measured passes compare queueing, not first-solve cost.
        run_load(handle.host, handle.port, fp, sorted(set(light_sizes)),
                 concurrency=4, connections=2, tenant="light")
        run_load(handle.host, handle.port, fp, sorted(set(heavy_sizes)),
                 concurrency=8, connections=4, tenant="heavy")

        for _ in range(3):
            solo = run_load(
                handle.host, handle.port, fp, light_sizes,
                concurrency=4, connections=2, tenant="light",
            )
            solo_p99 = min(solo_p99, solo.p99)
            light_lost += solo.error_count

            reports: dict[str, object] = {}

            def drive(tenant: str, sizes: list[int], conc: int) -> None:
                reports[tenant] = run_load(
                    handle.host, handle.port, fp, sizes,
                    concurrency=conc, connections=4, tenant=tenant,
                )

            # The skew is in request *volume* (HEAVY_SKEW x), not client
            # thread count: moderate flood concurrency keeps the GIL-
            # shared load generators from distorting the latency they
            # are supposed to observe.
            flood = threading.Thread(
                target=drive, args=("heavy", heavy_sizes, 16)
            )
            trickle = threading.Thread(
                target=drive, args=("light", light_sizes, 4)
            )
            flood.start()
            trickle.start()
            trickle.join()
            flood.join()
            light, heavy = reports["light"], reports["heavy"]
            mixed_p99 = min(mixed_p99, light.p99)
            heavy_rate = max(heavy_rate, heavy.plans_per_second)
            light_lost += light.error_count + (LIGHT_REQUESTS - light.ok)
            for code, count in light.errors.items():
                light_errors[code] = light_errors.get(code, 0) + count

    # -- overhead: a wall-clock A/B of two servers cannot resolve 3% on
    # a shared machine (the serve stack's run-to-run swing is larger),
    # so the idle-tenancy cost is measured *directly* — the same
    # budget-vs-measured idiom as the tracing and adaptation gates.
    # With tenancy configured and no tenant on the wire, a plan request
    # additionally executes one quota admission check and one scheduling
    # weight lookup; that per-call cost over a real served request is
    # the guarded ratio (everything else on the path — tenant counters,
    # fair-queue stamping — runs identically with tenancy off).
    quotas = QuotaManager(tenancy)
    quotas.try_acquire("", 1.0)  # populate the cached default-lane bucket

    def _tenancy_once() -> None:
        quotas.try_acquire("", 1.0)
        quotas.weight_for("")

    budget_s = float("inf")
    for _ in range(5):
        begin = time.perf_counter()
        for _ in range(5000):
            _tenancy_once()
        budget_s = min(budget_s, (time.perf_counter() - begin) / 5000)

    probe_n = capacity // 2
    served_s = float("inf")
    overhead_errors = 0
    with start_in_thread(ServeConfig(shards=2)) as handle:
        with ServeClient(handle.host, handle.port) as client:
            fp = client.register_fleet(sfs, name=fleet.name)["fingerprint"]
            client.plan(fp, probe_n)  # warm the shard
            for _ in range(3):
                begin = time.perf_counter()
                for _ in range(20):
                    resp = client.plan(fp, probe_n, allocation=False)
                    overhead_errors += 0 if resp.get("ok") else 1
                served_s = min(served_s, (time.perf_counter() - begin) / 20)

    return {
        "p": p,
        "light_requests": LIGHT_REQUESTS,
        "heavy_requests": HEAVY_SKEW * LIGHT_REQUESTS,
        "solo_p99": solo_p99,
        "mixed_p99": mixed_p99,
        "heavy_rate": heavy_rate,
        "light_errors": light_errors,
        "light_lost": light_lost,
        "tenancy_budget_seconds": budget_s,
        "served_seconds": served_s,
        "overhead_errors": overhead_errors,
    }


def test_serve_throughput_vs_naive_loop(mm_models, benchmark):
    sfs = tile_speed_functions(mm_models, P)
    fleet = Fleet(sfs, name=f"bench-p{P}")
    sizes = _workload(int(fleet.capacity))

    def run():
        # -- naive baseline: one cold paper-partitioner solve per request
        begin = time.perf_counter()
        for n in sizes:
            partition(n, sfs)
        naive_seconds = time.perf_counter() - begin
        naive_rate = len(sizes) / naive_seconds

        # -- the serving path: same workload, concurrency 32, one server
        config = ServeConfig(shards=2, max_batch=64, queue_depth=128)
        with start_in_thread(config) as handle:
            with ServeClient(handle.host, handle.port) as client:
                info = client.register_fleet(sfs, name=fleet.name)
                report = run_load(
                    handle.host,
                    handle.port,
                    info["fingerprint"],
                    sizes,
                    concurrency=CONCURRENCY,
                    connections=8,
                    allocation=False,
                )
                stats = client.stats()
        return naive_rate, report, stats

    naive_rate, report, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = report.plans_per_second / naive_rate

    print()
    print(
        ascii_table(
            ["path", "plans/s", "p50 (ms)", "p99 (ms)", "errors"],
            [
                (f"naive cold loop (p={P})", round(naive_rate, 1), "-", "-", 0),
                (
                    f"repro.serve (conc={CONCURRENCY})",
                    round(report.plans_per_second, 1),
                    round(report.p50 * 1e3, 2),
                    round(report.p99 * 1e3, 2),
                    report.error_count,
                ),
            ],
            title=f"Serving throughput — {REQUESTS} requests, "
            f"{DISTINCT} distinct sizes (speedup {speedup:.1f}x)",
        )
    )

    # The acceptance gates: throughput, zero drops, zero errors.
    assert report.ok == REQUESTS, f"missing responses: {report.summary()}"
    assert report.errors == {}, f"request errors: {report.errors}"
    assert stats["shed"] == 0, f"{stats['shed']} requests shed below the limit"
    assert speedup >= SPEEDUP_GATE, (
        f"serving must beat the naive loop {SPEEDUP_GATE}x, got {speedup:.2f}x "
        f"({report.plans_per_second:.0f} vs {naive_rate:.0f} plans/s)"
    )


def test_cluster_router_vs_direct_nodes(benchmark):
    """The multi-process topology gates: router overhead and aggregate gap."""
    r = benchmark.pedantic(measure_cluster_throughput, rounds=1, iterations=1)
    overhead = 1.0 - r["routed_single"] / r["direct_single"]
    gap = 1.0 - r["routed_aggregate"] / r["direct_aggregate"]

    print()
    print(
        ascii_table(
            ["topology", "direct plans/s", "routed plans/s", "loss"],
            [
                (
                    f"single fleet (p={r['p']})",
                    round(r["direct_single"], 1),
                    round(r["routed_single"], 1),
                    f"{overhead:.1%}",
                ),
                (
                    f"{CLUSTER_NODES} fleets on {CLUSTER_NODES} nodes",
                    round(r["direct_aggregate"], 1),
                    round(r["routed_aggregate"], 1),
                    f"{gap:.1%}",
                ),
            ],
            title=f"Cluster routing — {r['requests']} distinct-size requests "
            f"per fleet, concurrency {r['concurrency']}",
        )
    )

    assert r["errors"] == 0, f"cluster loads saw {r['errors']} errors"
    assert overhead < ROUTER_OVERHEAD_LIMIT, (
        f"router costs {overhead:.1%} of single-node throughput "
        f"(limit {ROUTER_OVERHEAD_LIMIT:.0%})"
    )
    assert gap < AGGREGATE_GAP_LIMIT, (
        f"routed aggregate trails direct-to-nodes by {gap:.1%} "
        f"(limit {AGGREGATE_GAP_LIMIT:.0%})"
    )


def test_multitenant_fairness(benchmark):
    """The tenancy gates: bounded skew impact, no starvation, idle cost."""
    r = benchmark.pedantic(measure_multitenant, rounds=1, iterations=1)
    ratio = r["mixed_p99"] / r["solo_p99"]
    overhead = r["tenancy_budget_seconds"] / r["served_seconds"]

    print()
    print(
        ascii_table(
            ["scenario", "p99 (ms)", "vs solo", "requests"],
            [
                (
                    "light tenant, solo",
                    round(r["solo_p99"] * 1e3, 2),
                    "1.0x",
                    r["light_requests"],
                ),
                (
                    f"light tenant under {HEAVY_SKEW}:1 skew",
                    round(r["mixed_p99"] * 1e3, 2),
                    f"{ratio:.1f}x",
                    r["light_requests"],
                ),
                (
                    f"heavy tenant ({r['heavy_rate']:.0f} plans/s)",
                    "-",
                    "-",
                    r["heavy_requests"],
                ),
            ],
            title=f"Multi-tenant fairness — p={r['p']}, weights light=8 "
            f"heavy=1 (idle-tenancy overhead {overhead:.1%})",
        )
    )

    # The acceptance gates: bounded unfairness, zero light-tenant loss,
    # and near-free tenancy for single-tenant deployments.
    assert r["light_lost"] == 0, (
        f"light tenant lost {r['light_lost']} requests under skew: "
        f"{r['light_errors']}"
    )
    assert ratio <= TENANT_P99_LIMIT, (
        f"light-tenant p99 degrades {ratio:.1f}x under {HEAVY_SKEW}:1 skew "
        f"(limit {TENANT_P99_LIMIT:.0f}x)"
    )
    assert r["overhead_errors"] == 0, (
        f"overhead probes saw {r['overhead_errors']} errors"
    )
    assert overhead < TENANT_IDLE_OVERHEAD_LIMIT, (
        f"idle tenancy costs {overhead:.1%} of a served request "
        f"(limit {TENANT_IDLE_OVERHEAD_LIMIT:.0%})"
    )
