"""End-to-end cluster smoke: router + member nodes + kill-one chaos.

``make cluster-smoke`` runs this module (``python -m repro.cluster.smoke``).
It boots real node *processes* behind a router thread (TCP + HTTP
listeners), registers the testbed fleet over the wire, checks routed
plans bit-for-bit against the direct planner and against the
independent optimality certificate (:mod:`repro.verify.certificate`),
exercises the aggregated ``/stats`` + ``cluster_status`` planes, then
SIGKILLs one member mid-load and asserts the fault-isolation contract:
every request is answered (replica plan or typed error, never a hang),
fallback plans pass the same two checks, and removing the corpse from
the ring leaves
bystander fleets where they were.  Exit code 0 means zero failures.

On failure the router's flight recorder is dumped to
``--flight-dump`` / ``$REPRO_FLIGHT_DUMP`` (CI uploads it as an
artifact), so the traces that crossed the router hop are preserved.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import urllib.request

import numpy as np

from ..experiments import build_network_models, tile_speed_functions
from ..machines import table2_network
from ..planner import Fleet, Planner
from ..serve.client import ServeClient, run_load
from ..serve.smoke import _check_plan, _span_names
from .node import start_process_node
from .router import RouterConfig, start_router_in_thread


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.cluster.smoke")
    parser.add_argument("--requests", type=int, default=80)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--p", type=int, default=24)
    parser.add_argument("--nodes", type=int, default=2)
    parser.add_argument(
        "--flight-dump", default=os.environ.get("REPRO_FLIGHT_DUMP", ""),
        help="on failure, dump the router flight recorder to this NDJSON file",
    )
    args = parser.parse_args(argv)

    models = build_network_models(table2_network(), "matmul")
    sfs = tile_speed_functions(models, args.p)
    fleet = Fleet(sfs, name=f"cluster-smoke-p{args.p}")
    reference = Planner(fleet)

    failures = 0
    members = [start_process_node(f"smoke-n{i}") for i in range(args.nodes)]
    router = start_router_in_thread(
        RouterConfig(http_port=0, probe_interval=0.1),
        [m.info for m in members],
    )
    try:
        print(
            f"cluster-smoke: router {router.host}:{router.port} "
            f"(http {router.http_port}) over "
            + ", ".join(m.node_id for m in members)
        )
        with ServeClient(router.host, router.port) as client:
            info = client.register_fleet(sfs, name=fleet.name)
            fingerprint = info["fingerprint"]
            if fingerprint != fleet.fingerprint:
                print("FAIL: wire fingerprint differs from local fingerprint")
                failures += 1
            if len(info["registered"]) < min(2, args.nodes):
                print(f"FAIL: fleet registered on {info['registered']} only")
                failures += 1

            rng = np.random.default_rng(0)
            sizes = [int(n) for n in rng.integers(1e4, int(fleet.capacity), 16)]
            for n in sizes[:4]:
                failures += _check_plan(
                    client.plan(fingerprint, n), n, reference, sfs, "routed plan"
                )

            load_sizes = [sizes[i % len(sizes)] for i in range(args.requests)]
            report = run_load(
                router.host, router.port, fingerprint, load_sizes,
                concurrency=args.concurrency,
            )
            print(f"cluster-smoke: load {report.summary()}")
            if report.error_count or report.ok != args.requests:
                print("FAIL: routed load saw errors or missing responses")
                failures += 1

            status = client.call("cluster_status")
            if not status["ok"] or len(status["result"]["nodes"]) != args.nodes:
                print(f"FAIL: cluster_status unexpected: {status}")
                failures += 1
            owners = status["result"]["fleets"][fingerprint]["nodes"]

            stats = client.stats()
            routed = stats["router"]["routed_primary"] + stats["router"][
                "routed_fallback"
            ]
            if routed < args.requests:
                print(f"FAIL: router routed {routed} < {args.requests} requests")
                failures += 1
            dead_nodes = [
                nid for nid, doc in stats["nodes"].items() if not doc.get("ok")
            ]
            if dead_nodes:
                print(f"FAIL: stats aggregation lost nodes {dead_nodes}")
                failures += 1

            # The kill-one window: SIGKILL the fleet's primary, keep
            # planning, demand bit-identical fallback answers.
            victim = next(m for m in members if m.node_id == owners[0])
            print(f"cluster-smoke: SIGKILL primary {victim.node_id}")
            victim.kill()
            chaos = run_load(
                router.host, router.port, fingerprint, load_sizes,
                concurrency=args.concurrency,
            )
            print(f"cluster-smoke: post-kill load {chaos.summary()}")
            answered = chaos.ok + chaos.error_count
            if answered != args.requests:
                print(f"FAIL: {answered}/{args.requests} answered after the kill")
                failures += 1
            for n in sizes[:4]:
                failures += _check_plan(
                    client.plan(fingerprint, n), n, reference, sfs, "fallback plan"
                )
            leave = client.call("cluster_leave", node=victim.node_id)
            if not leave["ok"]:
                print(f"FAIL: cluster_leave refused: {leave['error']}")
                failures += 1

        # The HTTP plane: router health, Prometheus metrics, stitched traces.
        base = f"http://{router.host}:{router.http_port}"
        health = json.loads(urllib.request.urlopen(f"{base}/health").read())
        if health.get("role") != "router" or health["status"] != "ok":
            print(f"FAIL: http health unexpected: {health}")
            failures += 1
        metrics = urllib.request.urlopen(f"{base}/metrics").read().decode()
        for family in ("cluster_route_primary_total", "cluster_requests_total"):
            if family not in metrics:
                print(f"FAIL: /metrics is missing {family}")
                failures += 1
        traces = json.loads(
            urllib.request.urlopen(f"{base}/debug/traces?limit=1").read()
        )
        if not traces["traces"]:
            print("FAIL: router recorded no traces")
            failures += 1
        else:
            tid = traces["traces"][0]["trace_id"]
            names = _span_names(base, tid)
            if "cluster.attempt" not in names:
                print(f"FAIL: trace {tid} has no routing spans: {names}")
                failures += 1

        if failures and args.flight_dump:
            parent = os.path.dirname(args.flight_dump)
            if parent:
                os.makedirs(parent, exist_ok=True)
            count = router.service.recorder.dump(args.flight_dump)
            print(f"cluster-smoke: dumped {count} traces to {args.flight_dump}")
    finally:
        router.stop()
        for m in members:
            try:
                m.stop() if m.alive else m.kill()
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass

    if failures:
        print(f"cluster-smoke: FAILED with {failures} failures")
        return 1
    print("cluster-smoke: OK")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by make cluster-smoke
    sys.exit(main())
