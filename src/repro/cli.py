"""Command-line experiment runner: ``repro <experiment>``.

Regenerates the paper's tables and figures from the terminal without
touching pytest::

    repro fig1            # speed curves (Table 1 machines)
    repro fig2            # workload bands
    repro table2          # testbed specs + paging onsets
    repro fig21           # partitioner cost sweep
    repro fig22a          # MM speedup sweep
    repro fig22b          # LU speedup sweep
    repro plan            # cached/batched partition planner queries
    repro stats           # run a workload, dump the collected telemetry
    repro trace           # run a workload, pretty-print the span tree
    repro serve           # run the concurrent planning service (repro.serve)
    repro verify          # certificates, differential conformance, fuzzing
    repro all             # every paper artefact above

``repro table3`` / ``repro table4`` run the *real* NumPy kernels on this
host, so their absolute MFlops depend on where you run them.  ``repro
stats`` / ``repro trace`` enable the :mod:`repro.obs` telemetry layer for
the duration of their workload; ``-v`` / ``--log-level`` switch on
structured (key=value) logging for any command.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from . import obs
from .exceptions import ReproError

from .experiments import (
    FIG22A_PROBES,
    FIG22A_SIZES,
    FIG22B_PROBES,
    FIG22B_SIZES,
    ascii_table,
    build_network_models,
    detect_paging_onsets,
    fig1_curves,
    fig21_sweep,
    fig2_bands,
    lu_invariance,
    lu_speedup_experiment,
    mm_invariance,
    mm_speedup_experiment,
)
from .machines import TABLE1_SPECS, TABLE2_SPECS, table1_network, table2_network

__all__ = ["main"]


def _cmd_fig1(args: argparse.Namespace) -> None:
    net = table1_network()
    print(
        ascii_table(
            ["Machine", "Architecture", "cpu MHz", "Main Memory (kB)", "Cache (kB)"],
            [
                (s.name, s.arch, int(s.cpu_mhz), s.main_memory_kb, s.cache_kb)
                for s in TABLE1_SPECS
            ],
            title="Table 1",
        )
    )
    for kernel, series in fig1_curves(net).items():
        print()
        print(
            ascii_table(
                ["Machine", "peak MFlops", "paging point P (elements)"],
                [(c.machine, c.peak, c.paging_onset) for c in series],
                title=f"Figure 1 — {kernel}",
            )
        )


def _cmd_fig2(args: argparse.Namespace) -> None:
    for b in fig2_bands(table1_network()):
        print(
            ascii_table(
                ["size (elements)", "lower", "upper", "width % of midline"],
                [
                    (float(x), float(lo), float(hi), float(w))
                    for x, lo, hi, w in zip(
                        b.sizes[:: max(len(b.sizes) // 10, 1)],
                        b.lower[:: max(len(b.sizes) // 10, 1)],
                        b.upper[:: max(len(b.sizes) // 10, 1)],
                        b.relative_width_percent[:: max(len(b.sizes) // 10, 1)],
                    )
                ],
                title=f"Figure 2 — {b.machine} ({b.kernel})",
            )
        )
        print()


def _cmd_table2(args: argparse.Namespace) -> None:
    print(
        ascii_table(
            ["Machine", "Architecture", "cpu MHz", "Main (kB)", "Free (kB)", "Cache (kB)"],
            [
                (s.name, s.arch, int(s.cpu_mhz), s.main_memory_kb, s.free_memory_kb, s.cache_kb)
                for s in TABLE2_SPECS
            ],
            title="Table 2",
        )
    )
    print()
    rows = detect_paging_onsets(table2_network())
    print(
        ascii_table(
            ["Machine", "Paging MM (detected/paper)", "Paging LU (detected/paper)"],
            [
                (r.machine, f"{r.detected_mm:.0f} / {r.published_mm}",
                 f"{r.detected_lu:.0f} / {r.published_lu}")
                for r in rows
            ],
            title="Paging onsets",
        )
    )


def _cmd_table3(args: argparse.Namespace) -> None:
    rows = mm_invariance(base_sizes=(256, 512), steps=4, repeats=args.repeats)
    table = []
    for row in rows:
        for (n1, n2), s in zip(row.shapes, row.speeds):
            table.append((f"{n1}x{n2}", row.elements, round(s)))
    print(ascii_table(["Size of matrix", "Elements", "MFlops"], table, title="Table 3 (this host)"))


def _cmd_table4(args: argparse.Namespace) -> None:
    rows = lu_invariance(base_sizes=(256, 512), steps=4, repeats=args.repeats)
    table = []
    for row in rows:
        for (n1, n2), s in zip(row.shapes, row.speeds):
            table.append((f"{n1}x{n2}", row.elements, round(s)))
    print(ascii_table(["Size of matrix", "Elements", "MFlops"], table, title="Table 4 (this host)"))


def _cmd_fig21(args: argparse.Namespace) -> None:
    models = build_network_models(table2_network(), "matmul")
    points = fig21_sweep(models, repeats=args.repeats)
    print(
        ascii_table(
            ["p", "n", "cost (s)", "steps"],
            [(p.p, p.n, p.seconds, p.iterations) for p in points],
            title="Figure 21 — cost of the partitioning algorithm",
        )
    )


def _cmd_fig22a(args: argparse.Namespace) -> None:
    net = table2_network()
    models = build_network_models(net, "matmul")
    for probe in FIG22A_PROBES:
        pts = mm_speedup_experiment(net, sizes=FIG22A_SIZES, probe=probe, models=models)
        print(
            ascii_table(
                ["n", "functional (s)", "single (s)", "speedup"],
                [
                    (p.n, p.functional_seconds, p.single_seconds, round(p.speedup, 2))
                    for p in pts
                ],
                title=f"Figure 22(a) — MM speedup, single-number probe {probe}x{probe}",
            )
        )
        print()


def _cmd_fig22b(args: argparse.Namespace) -> None:
    net = table2_network()
    models = build_network_models(net, "lu")
    for probe in FIG22B_PROBES:
        pts = lu_speedup_experiment(
            net, sizes=FIG22B_SIZES, probe=probe, block=args.block, models=models
        )
        print(
            ascii_table(
                ["n", "functional (s)", "single (s)", "speedup"],
                [
                    (p.n, p.functional_seconds, p.single_seconds, round(p.speedup, 2))
                    for p in pts
                ],
                title=f"Figure 22(b) — LU speedup, single-number probe {probe}x{probe}",
            )
        )
        print()


def _cmd_report(args: argparse.Namespace) -> None:
    from .experiments.full_report import generate_report

    path = generate_report(args.out, quick=not args.full)
    print(f"report written to {path}")


def _cmd_traces(args: argparse.Namespace) -> None:
    from .experiments import build_network_models
    from .experiments.traces import bisection_trace, optimal_line_demo
    from .kernels import mm_elements

    net = table2_network()
    models = build_network_models(net, "matmul")
    n = mm_elements(20_000)
    demo = optimal_line_demo(n, models)
    print(
        ascii_table(
            ["machine", "allocation", "point slope"],
            [
                (name, int(x), s)
                for name, x, s in zip(
                    net.names, demo.allocation, demo.point_slopes
                )
            ],
            title="Figure 4/6 — the optimal line through the origin",
        )
    )
    print(
        f"\noptimal makespan {demo.optimal_makespan:.6g}s, perturbed "
        f"{demo.perturbed_makespan:.6g}s"
    )
    trace = bisection_trace(n, models)
    print(
        ascii_table(
            ["line", "slope", "total allocation"],
            [("initial upper", *trace.initial_upper), ("initial lower", *trace.initial_lower)]
            + [(f"step {k + 1}", s, t) for k, (s, t) in enumerate(trace.steps)],
            title="Figure 8/18 — bisection trace",
        )
    )


def _build_planner(args: argparse.Namespace):
    """Fleet + planner + query sizes shared by plan/stats/trace."""
    from .experiments import tile_speed_functions
    from .planner import Fleet, Planner

    net = table2_network()
    models = build_network_models(net, args.kernel)
    p = args.p if args.p is not None else len(models)
    sfs = tile_speed_functions(models, p) if p != len(models) else models
    fleet = Fleet(sfs, name=f"table2-{args.kernel}-p{p}")
    planner = Planner(fleet, algorithm=args.algorithm)
    if args.sizes:
        # float() first so scientific notation ("2e8") works on the CLI.
        sizes = [int(float(s)) for s in args.sizes.split(",") if s.strip()]
    else:
        step = max(1, int(fleet.capacity) // 8)
        sizes = [step * k for k in range(1, 7)]
    return fleet, planner, sizes


def _cmd_plan(args: argparse.Namespace) -> None:
    fleet, planner, sizes = _build_planner(args)
    results = planner.plan_many(sizes)
    # Replay the same queries to show the cache at work.
    for n in sizes:
        planner.plan(n)
    print(
        ascii_table(
            ["n", "makespan (s)", "min alloc", "max alloc", "bisection steps"],
            [
                (
                    n,
                    float(r.makespan),
                    int(r.allocation.min()),
                    int(r.allocation.max()),
                    r.iterations,
                )
                for n, r in zip(sizes, results)
            ],
            title=f"Partition plans — {fleet.name} ({args.algorithm})",
        )
    )
    stats = planner.stats()
    print(f"\nfleet fingerprint {fleet.fingerprint}")
    print(f"planner: {stats}")


def _run_stats_workload(args: argparse.Namespace):
    """The instrumented workload behind ``repro stats`` / ``repro trace``.

    A planner batch query, a cache replay and a small simulated LU run —
    enough to populate solver counters, cache hit rates, per-plan latency
    histograms and a nested span tree.
    """
    from .kernels.group_block import variable_group_block
    from .simulate.lu_executor import simulate_lu

    fleet, planner, sizes = _build_planner(args)
    with obs.span("repro.workload", kernel=args.kernel, p=fleet.p):
        for n in sizes:  # individual solves: per-plan latency spans
            planner.plan(n)
        planner.plan_many(sizes)  # replay: all served from the plan cache
        offset = max(1, min(sizes) // 2)
        planner.plan_many([n + offset for n in sizes])  # lockstep batch sweep
        net = table2_network()
        lu_models = build_network_models(net, "lu")
        dist = variable_group_block(args.trace_n, args.block, lu_models)
        sim = simulate_lu(dist, lu_models)
    return planner, sim


def _http_json(addr: str, path: str) -> dict:
    """GET a JSON document from a running server's HTTP listener."""
    import json as _json
    import urllib.error
    import urllib.request

    url = f"http://{addr}{path}"
    try:
        with urllib.request.urlopen(url, timeout=10.0) as resp:
            return _json.load(resp)
    except urllib.error.HTTPError as exc:
        if exc.code == 404:
            raise CommandError(f"{url}: {exc.read().decode('utf-8', 'replace')}")
        raise CommandError(f"{url}: HTTP {exc.code}")
    except (urllib.error.URLError, OSError) as exc:
        raise CommandError(f"cannot reach {url}: {exc}")


def _watch_loop(render: Callable[[], None], interval: float | None) -> None:
    """Run ``render`` once, or forever every ``interval`` seconds."""
    import time as _time

    if not interval:
        render()
        return
    try:
        while True:
            print("\x1b[2J\x1b[H", end="")  # clear screen, home cursor
            render()
            print(f"\n(refreshing every {interval:g}s — Ctrl-C to stop)")
            _time.sleep(interval)
    except KeyboardInterrupt:
        pass


def _render_serve_stats(args: argparse.Namespace) -> None:
    doc = _http_json(args.serve_addr, "/stats")
    if args.format == "json":
        import json as _json

        print(_json.dumps(doc, indent=2, sort_keys=True))
        return
    if "cluster" in doc:
        # The address points at a cluster router: render the aggregated
        # membership + per-node view instead of single-server counters.
        _render_cluster_stats(doc)
        return
    trace = doc.get("trace") or {}
    rows = [
        ("serve.requests", "", doc.get("requests", 0)),
        ("serve.responses", "status=ok", doc.get("responses_ok", 0)),
        ("serve.responses", "status=error", doc.get("responses_error", 0)),
        ("serve.shed", "", doc.get("shed", 0)),
        ("serve.batches", "", doc.get("batches", 0)),
        ("serve.trace.recorded", "", trace.get("recorded", 0)),
        ("serve.trace.retained", "", trace.get("retained", 0)),
        ("serve.trace.evicted", "", trace.get("evicted", 0)),
        ("serve.trace.sampled", "", trace.get("sampled", 0)),
    ]
    refit = doc.get("refit") or {}
    counters = refit.get("counters") or {}
    rows.extend(
        (f"model.refit.{name}", "", counters.get(name, 0)) for name in sorted(counters)
    )
    rows.append(
        ("planner.cache.invalidations", "refit", refit.get("invalidated", 0))
    )
    tenancy = doc.get("tenancy") or {}
    idem = tenancy.get("idempotency") or {}
    warm = tenancy.get("warm_tier") or {}
    rows.extend(
        (f"serve.idempotent.{name}", "", idem.get(name, 0))
        for name in ("hits", "coalesced", "misses", "evictions")
    )
    rows.append(("serve.warm_tier.entries",
                 "enabled" if warm.get("enabled") else "disabled",
                 warm.get("entries", 0)))
    print(ascii_table(["metric", "labels", "value"], rows, title="Serve counters"))
    tenants = tenancy.get("tenants") or {}
    if tenants:
        backlogs = tenancy.get("backlogs") or {}
        print()
        print(
            ascii_table(
                ["tenant", "requests", "throttled", "shed", "backlog"],
                [
                    (name, t.get("requests", 0), t.get("throttled", 0),
                     t.get("shed", 0), backlogs.get(name, 0))
                    for name, t in sorted(tenants.items())
                ],
                title="Tenants"
                + (" (quotas on)" if tenancy.get("enabled") else ""),
            )
        )
    recorder_rows = [
        (k, trace.get(k, 0))
        for k in ("ring_size", "error_store_size", "slow_store_size", "capacity")
    ]
    print()
    print(ascii_table(["flight recorder", "value"], recorder_rows))
    fleets = doc.get("fleets") or {}
    if fleets:
        per_fleet = refit.get("fleets") or {}
        print()
        print(
            ascii_table(
                ["fleet", "name", "p", "shard", "refits"],
                [
                    (fp[:16], info.get("name", ""), info.get("p", ""),
                     info.get("shard", ""),
                     per_fleet.get(fp, {}).get("refits", 0))
                    for fp, info in sorted(fleets.items())
                ],
                title="Registered fleets",
            )
        )


def _render_cluster_stats(doc: dict) -> None:
    """`repro stats --serve` against a router: the whole cluster at once."""
    router = doc.get("router") or {}
    rows = [
        ("cluster.requests", "", router.get("requests", 0)),
        ("cluster.route", "path=primary", router.get("routed_primary", 0)),
        ("cluster.route", "path=fallback", router.get("routed_fallback", 0)),
        ("cluster.route", "path=unavailable", router.get("unavailable", 0)),
        ("cluster.shed", "", router.get("shed", 0)),
        ("cluster.reshards", "", router.get("reshards", 0)),
        ("cluster.trace.recorded", "", (router.get("trace") or {}).get("recorded", 0)),
    ]
    print(ascii_table(["metric", "labels", "value"], rows, title="Router counters"))
    breakers = router.get("breakers") or {}
    nodes = doc.get("nodes") or {}
    node_rows = []
    for node_id in sorted(nodes):
        nd = nodes[node_id]
        if nd.get("ok"):
            node_rows.append(
                (node_id, breakers.get(node_id, "?"), nd.get("requests", 0),
                 nd.get("responses_ok", 0), nd.get("responses_error", 0),
                 nd.get("shed", 0), len(nd.get("fleets") or {}),
                 (nd.get("trace") or {}).get("recorded", 0))
            )
        else:
            node_rows.append(
                (node_id, breakers.get(node_id, "?"),
                 f"unreachable: {nd.get('error')}", "", "", "", "", "")
            )
    print()
    print(
        ascii_table(
            ["node", "breaker", "requests", "ok", "error", "shed", "fleets",
             "traces"],
            node_rows,
            title="Member nodes",
        )
    )
    cluster = doc.get("cluster") or {}
    fleets = cluster.get("fleets") or {}
    if fleets:
        print()
        print(
            ascii_table(
                ["fleet", "name", "replicas"],
                [
                    (fp[:16], info.get("name", ""),
                     " ".join(info.get("nodes") or []))
                    for fp, info in sorted(fleets.items())
                ],
                title="Fleet placement",
            )
        )


def _cmd_stats(args: argparse.Namespace) -> None:
    if args.serve_addr:
        _watch_loop(lambda: _render_serve_stats(args), args.watch)
        return
    if args.watch:
        _watch_loop(lambda: _cmd_stats_once(args), args.watch)
        return
    _cmd_stats_once(args)


def _cmd_stats_once(args: argparse.Namespace) -> None:
    obs.clear_all()
    obs.enable()
    try:
        planner, _sim = _run_stats_workload(args)
    finally:
        obs.disable()
    if args.format == "json":
        print(obs.to_json())
    elif args.format == "prom":
        print(obs.to_prometheus(), end="")
    else:
        registry = obs.get_registry()
        scalars = [
            (m.name, " ".join(f"{k}={v}" for k, v in m.labels), m.value)
            for m in registry.metrics()
            if m.kind in ("counter", "gauge")
        ]
        print(ascii_table(["metric", "labels", "value"], scalars, title="Counters"))
        print()
        hists = [
            (
                m.name,
                " ".join(f"{k}={v}" for k, v in m.labels),
                m.count,
                f"{m.mean:.3g}",
                f"{m.quantile(0.5):.3g}",
                f"{m.quantile(0.9):.3g}",
            )
            for m in registry.metrics()
            if m.kind == "histogram" and m.count
        ]
        print(
            ascii_table(
                ["histogram", "labels", "count", "mean", "~p50", "~p90"],
                hists,
                title="Histograms (bucketed)",
            )
        )
        print(f"\nplanner: {planner.stats()}")
    if args.metrics_out:
        obs.write_json(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")


def _member_http_addrs(stats_doc: dict) -> dict[str, str]:
    """``node_id -> host:http_port`` for a router's reachable members."""
    out: dict[str, str] = {}
    for info in (stats_doc.get("cluster") or {}).get("nodes") or []:
        if info.get("http_port"):
            out[info["node_id"]] = f"{info['host']}:{info['http_port']}"
    return out


def _graft_cluster_trace(router_doc: dict, node_docs: dict[str, dict]) -> dict:
    """Stitch member-node span trees into the router's tree by parent id.

    The router forwards each attempt with a child trace context, so a
    node's root span carries ``parent_id == <attempt span id>``; grafting
    is an index lookup, no heuristics.
    """
    spans = router_doc.get("spans")
    if not spans:
        return router_doc
    by_id: dict[str, dict] = {}
    stack = [spans]
    while stack:
        node = stack.pop()
        if node.get("span_id"):
            by_id[node["span_id"]] = node
        stack.extend(node.get("children", []))
    for node_id, doc in node_docs.items():
        sub = doc.get("spans")
        if not sub:
            continue
        sub.setdefault("attrs", {})["node"] = node_id
        parent = by_id.get(sub.get("parent_id", ""))
        if parent is not None:
            parent.setdefault("children", []).append(sub)
        else:  # orphaned subtree: keep it visible under the root
            spans.setdefault("children", []).append(sub)
    return router_doc


def _render_cluster_traces(args: argparse.Namespace, stats_doc: dict) -> None:
    """`repro trace --serve` against a router: the merged flight view."""
    members = _member_http_addrs(stats_doc)
    if args.trace_id:
        router_doc = _http_json(args.serve_addr, f"/debug/traces?id={args.trace_id}")
        node_docs: dict[str, dict] = {}
        for node_id, addr in members.items():
            try:
                node_docs[node_id] = _http_json(
                    addr, f"/debug/traces?id={args.trace_id}"
                )
            except CommandError:
                continue  # this member never saw the trace (or is down)
        doc = _graft_cluster_trace(router_doc, node_docs)
        print(
            f"trace {doc['trace_id']}  op={doc['op']} status={doc['status']} "
            f"n={doc.get('n')} {doc['seconds'] * 1e3:.3f}ms "
            f"(router + {len(node_docs)} node subtree(s))"
        )
        spans = doc.get("spans")
        if spans:
            print(obs.render_spans([obs.Span.from_dict(spans)], max_children=16))
        return
    query = f"/debug/traces?limit={args.limit}"
    if args.errors_only:
        query += "&errors=1"
    if args.slow_only:
        query += "&slow=1"
    rows = []
    sources = {"router": args.serve_addr, **members}
    reachable = 0
    for label, addr in sources.items():
        try:
            doc = _http_json(addr, query)
        except CommandError:
            rows.append((label, "-", "-", "unreachable", "", ""))
            continue
        reachable += 1
        for t in doc.get("traces", []):
            rows.append(
                (label, t["trace_id"], t["op"], t["status"], t.get("n", ""),
                 f"{t['seconds'] * 1e3:.3f}", t.get("started", 0.0))
            )
    rows.sort(key=lambda r: r[-1] if len(r) == 7 else 0.0, reverse=True)
    print(
        ascii_table(
            ["node", "trace_id", "op", "status", "n", "ms"],
            [r[:6] for r in rows[: args.limit]],
            title=f"Flight recorder — cluster view ({reachable} listeners)",
        )
    )
    print("use --trace-id <id> for one stitched span tree across the cluster")


def _render_serve_traces(args: argparse.Namespace) -> None:
    """Flight-recorder traces from a live server, rendered for humans."""
    stats_doc = _http_json(args.serve_addr, "/stats")
    if "cluster" in stats_doc:
        _render_cluster_traces(args, stats_doc)
        return
    if args.trace_id:
        doc = _http_json(args.serve_addr, f"/debug/traces?id={args.trace_id}")
        print(
            f"trace {doc['trace_id']}  op={doc['op']} status={doc['status']} "
            f"n={doc.get('n')} {doc['seconds'] * 1e3:.3f}ms"
        )
        spans = doc.get("spans")
        if spans:
            print(obs.render_spans([obs.Span.from_dict(spans)], max_children=16))
        return
    query = f"/debug/traces?limit={args.limit}"
    if args.errors_only:
        query += "&errors=1"
    if args.slow_only:
        query += "&slow=1"
    doc = _http_json(args.serve_addr, query)
    rows = [
        (
            t["trace_id"],
            t["op"],
            t["status"],
            t.get("n", ""),
            f"{t['seconds'] * 1e3:.3f}",
        )
        for t in doc.get("traces", [])
    ]
    print(
        ascii_table(
            ["trace_id", "op", "status", "n", "ms"],
            rows,
            title="Flight recorder — retained traces",
        )
    )
    st = doc.get("stats") or {}
    print(
        f"\nrecorded={st.get('recorded', 0)} retained={st.get('retained', 0)} "
        f"evicted={st.get('evicted', 0)} sampled={st.get('sampled', 0)} "
        f"(ring {st.get('ring_size', 0)}/{st.get('capacity', 0)})"
    )
    print("use --trace-id <id> for one full span tree")


def _cmd_trace(args: argparse.Namespace) -> None:
    if args.serve_addr:
        _watch_loop(lambda: _render_serve_traces(args), args.watch)
        return
    obs.clear_all()
    obs.enable()
    try:
        _planner, sim = _run_stats_workload(args)
    finally:
        obs.disable()
    print(obs.render_spans(max_children=12))
    recorded = sum(
        1
        for root in obs.get_tracer().roots()
        for s in root.walk()
        if s.name == "simulate.lu.step"
    )
    print(
        f"\nsimulated LU: {recorded} step spans, "
        f"{len(sim.trace)} SimulationTrace records, "
        f"modelled total {sim.total_seconds:.6g}s"
    )


def _serve_config(args: argparse.Namespace):
    """A :class:`~repro.serve.ServeConfig` from the CLI flags."""
    from .serve import ServeConfig

    return ServeConfig(
        shards=args.shards,
        worker_mode=args.workers,
        max_batch=args.max_batch,
        queue_depth=args.queue_depth,
        host=args.host,
        port=args.port,
        http_port=None if args.http_port < 0 else args.http_port,
    )


def _cmd_serve(args: argparse.Namespace) -> None:
    """Boot the planning service, pre-register the testbed fleet, serve.

    ``--once`` answers a single self-issued query and exits (a built-in
    sanity check, also used by the CLI tests); without it the server
    runs until interrupted and drains in-flight requests on Ctrl-C.
    """
    import time as _time

    from .experiments import tile_speed_functions
    from .serve import ServeClient, start_in_thread

    net = table2_network()
    models = build_network_models(net, args.kernel)
    p = args.p if args.p is not None else len(models)
    sfs = tile_speed_functions(models, p) if p != len(models) else models
    handle = start_in_thread(_serve_config(args))
    try:
        with ServeClient(handle.host, handle.port) as client:
            info = client.register_fleet(
                sfs, name=f"table2-{args.kernel}-p{p}", algorithm=args.algorithm
            )
            http = "disabled" if handle.http_port is None else handle.http_port
            print(f"serving on {handle.host}:{handle.port} (http {http})")
            print(
                f"fleet {info['name']} registered: fingerprint "
                f"{info['fingerprint']} (p={info['p']}, shard {info['shard']})"
            )
            if args.once:
                n = max(1, int(info["capacity"]) // 2)
                result = client.plan(info["fingerprint"], n, allocation=False)
                print(
                    f"self-check plan n={n}: makespan {result['makespan']:.6g}s "
                    f"in {result['iterations']} iterations"
                )
                print("draining")
                return
            print("press Ctrl-C to drain and stop")
            while True:  # pragma: no cover - interactive loop
                _time.sleep(1.0)
    except KeyboardInterrupt:  # pragma: no cover - interactive loop
        print("draining")
    finally:
        handle.stop()


def _parse_hostport(value: str, flag: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise CommandError(f"{flag} must look like HOST:PORT, got {value!r}")
    return host, int(port)


def _cmd_cluster(args: argparse.Namespace) -> None:
    """Operate a multi-node planning cluster (see ``docs/cluster.md``).

    ``repro cluster up`` boots a router plus ``--nodes`` planner node
    processes and serves until interrupted (``--once`` self-checks one
    routed plan and exits).  ``status`` / ``join`` / ``leave`` are admin
    calls against a running router named by ``--router HOST:PORT`` —
    they ride the same NDJSON protocol as the data path.
    """
    action = args.action or "status"
    if action not in ("status", "join", "leave", "up"):
        raise CommandError(
            f"unknown cluster action {action!r}; pick status, join, leave or up"
        )
    if action == "up":
        _cluster_up(args)
        return
    if not args.router:
        raise CommandError(f"cluster {action} needs --router HOST:PORT")
    from .serve import ServeClient

    host, port = _parse_hostport(args.router, "--router")
    with ServeClient(host, port) as client:
        if action == "status":
            resp = client.call("cluster_status")
        elif action == "join":
            if not args.node_addr:
                raise CommandError("cluster join needs --node-addr HOST:PORT")
            node_host, node_port = _parse_hostport(args.node_addr, "--node-addr")
            fields: dict = {"host": node_host, "port": node_port}
            if args.node_http is not None:
                fields["http_port"] = args.node_http
            resp = client.call("cluster_join", **fields)
        else:
            if not args.node_id:
                raise CommandError("cluster leave needs --node-id HOST:PORT")
            resp = client.call("cluster_leave", node=args.node_id)
    if not resp.get("ok"):
        err = resp.get("error") or {}
        raise CommandError(
            f"cluster {action}: {err.get('code')}: {err.get('message')}"
        )
    result = resp["result"]
    if action == "status":
        _print_cluster_status(result)
    elif action == "join":
        node = result.get("node") or {}
        note = " (already a member)" if result.get("already_member") else ""
        print(
            f"joined {node.get('node_id')}{note}: {result.get('fleets_moved', 0)} "
            f"fleet(s) remapped, {result.get('registered', 0)} registration(s) sent"
        )
    else:
        drained = "drained" if result.get("drained") else "NOT fully drained"
        print(
            f"left {result.get('node_id')}: {result.get('fleets_moved', 0)} "
            f"fleet(s) remapped, {result.get('registered', 0)} "
            f"registration(s) sent, in-flight work {drained}"
        )


def _print_cluster_status(doc: dict) -> None:
    router = doc.get("router") or {}
    breakers = {
        node_id: info.get("breaker", "?")
        for node_id, info in (router.get("nodes") or {}).items()
    }
    print(
        ascii_table(
            ["node", "host", "port", "http", "breaker"],
            [
                (
                    n["node_id"], n["host"], n["port"], n.get("http_port") or "-",
                    breakers.get(n["node_id"], "?"),
                )
                for n in doc.get("nodes", [])
            ],
            title=f"Cluster members (replication {doc.get('replication')})",
        )
    )
    fleets = doc.get("fleets") or {}
    if fleets:
        print()
        print(
            ascii_table(
                ["fleet", "name", "replicas"],
                [
                    (fp[:16], info.get("name", ""), " ".join(info.get("nodes", [])))
                    for fp, info in sorted(fleets.items())
                ],
                title="Fleet placement",
            )
        )


def _cluster_up(args: argparse.Namespace) -> None:
    import time as _time

    from .cluster import RouterConfig, start_process_node, start_router_in_thread
    from .experiments import tile_speed_functions
    from .serve import ServeClient

    models = build_network_models(table2_network(), args.kernel)
    p = args.p if args.p is not None else len(models)
    sfs = tile_speed_functions(models, p) if p != len(models) else models

    members = [start_process_node(f"n{i}") for i in range(args.nodes)]
    router = start_router_in_thread(
        RouterConfig(
            host=args.host,
            port=args.port,
            http_port=None if args.http_port < 0 else args.http_port,
            replication=args.replication,
        ),
        [m.info for m in members],
    )
    try:
        http = "disabled" if router.http_port is None else router.http_port
        print(
            f"cluster router on {router.host}:{router.port} (http {http}) over "
            f"{args.nodes} node(s): " + ", ".join(m.node_id for m in members)
        )
        with ServeClient(router.host, router.port) as client:
            info = client.register_fleet(
                sfs, name=f"table2-{args.kernel}-p{p}", algorithm=args.algorithm
            )
            print(
                f"fleet {info['name']} registered: fingerprint "
                f"{info['fingerprint']} on {' '.join(info['registered'])}"
            )
            if args.once:
                n = max(1, int(info["capacity"]) // 2)
                result = client.plan(info["fingerprint"], n, allocation=False)
                print(
                    f"self-check plan n={n}: makespan {result['makespan']:.6g}s "
                    f"in {result['iterations']} iterations"
                )
                print("draining")
                return
            print("press Ctrl-C to drain and stop")
            while True:  # pragma: no cover - interactive loop
                _time.sleep(1.0)
    except KeyboardInterrupt:  # pragma: no cover - interactive loop
        print("draining")
    finally:
        router.stop()
        for m in members:
            try:
                m.stop()
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass


def _cmd_verify(args: argparse.Namespace) -> None:
    """Run the :mod:`repro.verify` harness (see ``docs/testing.md``).

    Four sweeps — differential conformance, protocol fuzzing, adapt
    chaos, and (opt-in via ``--cluster-runs``) kill-a-node cluster chaos
    — all seeded, all replayable.  The ``--only-*`` flags replay a
    single case/frame/run and skip the other sweeps; any confirmed bug
    makes the command exit non-zero after printing one replay line per
    failure.
    """
    from .verify import fuzz_adapt, fuzz_protocol, run_differential

    replaying = (
        args.only_case is not None
        or args.only_frame is not None
        or args.only_run is not None
    )
    failures = 0

    if args.only_case is not None or not replaying:
        report = run_differential(
            cases=args.cases, seed=args.seed, only_case=args.only_case,
            log=print,
        )
        print(report.summary())
        failures += len(report.bugs)

    if args.only_frame is not None or not replaying:
        frames = args.fuzz_frames if args.only_frame is None else 1
        if frames > 0:
            report = fuzz_protocol(
                frames=args.fuzz_frames, seed=args.seed,
                only_frame=args.only_frame, log=print,
            )
            print(report.summary())
            failures += len(report.failures)

    if args.only_run is not None or not replaying:
        runs = args.chaos_runs if args.only_run is None else 1
        if runs > 0:
            report = fuzz_adapt(
                runs=args.chaos_runs, seed=args.seed,
                only_run=args.only_run, log=print,
            )
            print(report.summary())
            failures += len(report.failures)

    if args.cluster_runs > 0 and not replaying:
        from .verify import run_cluster_chaos

        report = run_cluster_chaos(runs=args.cluster_runs, seed=args.seed)
        print(report.summary())
        for failure in report.failures:
            print(f"  {failure.summary()}")
        failures += len(report.failures)

    if failures:
        raise CommandError(f"verification found {failures} failure(s)")
    print("verify: all sweeps clean")


class CommandError(RuntimeError):
    """A command-level failure: report it and exit non-zero, no traceback."""


_COMMANDS: dict[str, Callable[[argparse.Namespace], None]] = {
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "table4": _cmd_table4,
    "fig21": _cmd_fig21,
    "fig22a": _cmd_fig22a,
    "fig22b": _cmd_fig22b,
    "traces": _cmd_traces,
    "report": _cmd_report,
    "plan": _cmd_plan,
    "stats": _cmd_stats,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "cluster": _cmd_cluster,
    "verify": _cmd_verify,
}

#: Telemetry/serving tooling, not paper artefacts: excluded from ``repro all``.
_TELEMETRY_COMMANDS = frozenset({"stats", "trace", "serve", "cluster", "verify"})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the tables and figures of Lastovetsky & Reddy, "
            "'Data Partitioning with a Realistic Performance Model of "
            "Networks of Heterogeneous Computers' (IPPS 2004)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_COMMANDS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "action", nargs="?", default=None,
        choices=["status", "join", "leave", "up"],
        help="subaction for `repro cluster` (default: status)",
    )
    parser.add_argument(
        "--repeats", type=int, default=2, help="benchmark repeats where applicable"
    )
    parser.add_argument(
        "--block", type=int, default=64, help="LU column block width (fig22b)"
    )
    parser.add_argument(
        "--out", default="report.md", help="output file for `repro report`"
    )
    parser.add_argument(
        "--full", action="store_true",
        help="run the full figure-22 sweeps in `repro report`",
    )
    parser.add_argument(
        "--sizes", default="",
        help="comma-separated problem sizes for `repro plan` "
        "(default: six sizes spread over the fleet capacity)",
    )
    parser.add_argument(
        "--p", type=int, default=None,
        help="fleet size for `repro plan` (tiles the testbed models; "
        "default: the testbed itself)",
    )
    parser.add_argument(
        "--kernel", default="matmul", choices=["matmul", "lu"],
        help="speed-function kernel for `repro plan`",
    )
    parser.add_argument(
        "--algorithm", default="bisection",
        choices=["bisection", "combined", "modified"],
        help="partitioning algorithm for `repro plan`",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="structured logging: -v for INFO, -vv for DEBUG",
    )
    parser.add_argument(
        "--log-level", default=None,
        choices=["debug", "info", "warning", "error"],
        help="explicit log level (overrides -v)",
    )
    parser.add_argument(
        "--format", default="table", choices=["table", "json", "prom"],
        help="output format for `repro stats`",
    )
    parser.add_argument(
        "--metrics-out", default="",
        help="also write the JSON metrics snapshot here (`repro stats`)",
    )
    parser.add_argument(
        "--trace-n", type=int, default=1024,
        help="matrix dimension of the simulated LU in `repro stats/trace`",
    )
    parser.add_argument(
        "--serve", dest="serve_addr", default=None, metavar="HOST:HTTP_PORT",
        help="read `repro stats` / `repro trace` from a running server's "
        "HTTP listener instead of running a local workload",
    )
    parser.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="refresh `repro stats` / `repro trace` output periodically",
    )
    parser.add_argument(
        "--trace-id", default=None,
        help="show one retained trace's full span tree (`repro trace --serve`)",
    )
    parser.add_argument(
        "--limit", type=int, default=20,
        help="traces to list in `repro trace --serve`",
    )
    parser.add_argument(
        "--errors-only", action="store_true",
        help="list only error/shed/deadline traces (`repro trace --serve`)",
    )
    parser.add_argument(
        "--slow-only", action="store_true",
        help="list only the top-K slowest traces (`repro trace --serve`)",
    )
    serve = parser.add_argument_group("serve", "options for `repro serve`")
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address for `repro serve`"
    )
    serve.add_argument(
        "--port", type=int, default=7077,
        help="TCP port for the NDJSON protocol (0 = ephemeral)",
    )
    serve.add_argument(
        "--http-port", type=int, default=0,
        help="HTTP port for /metrics, /health, /stats "
        "(0 = ephemeral, negative disables HTTP)",
    )
    serve.add_argument(
        "--shards", type=int, default=2, help="number of planner worker shards"
    )
    serve.add_argument(
        "--workers", default="thread", choices=["thread", "process"],
        help="shard worker mode",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64,
        help="the most requests a busy lane holds before it flushes anyway",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=128,
        help="per-shard admission queue depth (beyond this, requests "
        "are shed with an `overloaded` response)",
    )
    serve.add_argument(
        "--once", action="store_true",
        help="answer one self-issued plan request, then drain and exit",
    )
    cluster = parser.add_argument_group("cluster", "options for `repro cluster`")
    cluster.add_argument(
        "--router", default=None, metavar="HOST:PORT",
        help="router address for `repro cluster status/join/leave`",
    )
    cluster.add_argument(
        "--node-addr", default=None, metavar="HOST:PORT",
        help="planner-node TCP address for `repro cluster join`",
    )
    cluster.add_argument(
        "--node-http", type=int, default=None, metavar="PORT",
        help="the joining node's HTTP port (enables aggregated tracing)",
    )
    cluster.add_argument(
        "--node-id", default=None, metavar="HOST:PORT",
        help="member node id for `repro cluster leave`",
    )
    cluster.add_argument(
        "--nodes", type=int, default=3,
        help="planner node processes for `repro cluster up`",
    )
    cluster.add_argument(
        "--replication", type=int, default=2,
        help="replica-set size per fleet for `repro cluster up`",
    )
    verify = parser.add_argument_group("verify", "options for `repro verify`")
    verify.add_argument(
        "--cases", type=int, default=200,
        help="differential conformance cases to generate",
    )
    verify.add_argument(
        "--seed", type=int, default=0,
        help="root seed; every case is a pure function of (seed, index)",
    )
    verify.add_argument(
        "--fuzz-frames", type=int, default=500,
        help="mutated protocol frames to throw at a live server "
        "(0 skips the protocol fuzzer)",
    )
    verify.add_argument(
        "--chaos-runs", type=int, default=6,
        help="randomized fault-script runs of the adaptive simulator "
        "(0 skips the chaos sweep)",
    )
    verify.add_argument(
        "--cluster-runs", type=int, default=0,
        help="kill-a-node cluster chaos runs — router + node processes, "
        "SIGKILL mid-load (0 skips; `make verify-smoke` runs one)",
    )
    verify.add_argument(
        "--only-case", type=int, default=None, metavar="K",
        help="replay one differential case and skip the other sweeps",
    )
    verify.add_argument(
        "--only-frame", type=int, default=None, metavar="K",
        help="replay one fuzzed protocol frame and skip the other sweeps",
    )
    verify.add_argument(
        "--only-run", type=int, default=None, metavar="K",
        help="replay one chaos run and skip the other sweeps",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level is not None:
        obs.configure_logging(args.log_level)
    elif args.verbose:
        obs.configure_logging(obs.verbosity_to_level(args.verbose))
    try:
        if args.experiment == "all":
            for name in sorted(_COMMANDS):
                if name in _TELEMETRY_COMMANDS:
                    continue
                print(f"\n===== {name} =====")
                _COMMANDS[name](args)
        else:
            _COMMANDS[args.experiment](args)
    except CommandError as exc:
        print(f"repro {args.experiment}: {exc}", file=sys.stderr)
        return 1
    except (ReproError, ValueError) as exc:
        # Bad flag values (unparseable --sizes, infeasible configs, ...)
        # should read like argparse errors, not tracebacks.
        print(f"repro {args.experiment}: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
