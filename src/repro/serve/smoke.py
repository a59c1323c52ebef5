"""End-to-end smoke: boot a server, fire mixed traffic, assert no errors.

``make serve-smoke`` runs this module (``python -m repro.serve.smoke``).
It boots a real server (TCP + HTTP listeners, thread or process shards
per ``--worker-mode``) on ephemeral ports, registers the testbed fleet
over the wire, fires a mix of ``plan`` / ``plan_many`` / ``health`` /
``stats`` requests both through the blocking client and the concurrent
load generator, checks every response against a directly computed plan
*and* against the independent optimality certificate
(:mod:`repro.verify.certificate`), scrapes ``/metrics``, and drains.
With ``--warm-tier-size N`` it also serves ``2N`` fresh sizes through
the ``N``-entry warm plan store, checking each plan the same way and
that the store ends exactly full.  Exit code 0 means zero errors and
zero shed requests.
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
from ..verify import check_allocation
from .client import ServeClient, run_load
from .server import start_in_thread
from .service import ServeConfig


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.serve.smoke")
    parser.add_argument("--requests", type=int, default=100)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--p", type=int, default=24)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--worker-mode", choices=("thread", "process"), default="thread")
    parser.add_argument(
        "--warm-tier-size", type=int, default=None,
        help="bound the shard pool's warm plan store, and serve twice that "
        "many distinct sizes so the store evicts under served traffic",
    )
    parser.add_argument(
        "--flight-dump", default=os.environ.get("REPRO_FLIGHT_DUMP", ""),
        help="on failure, dump the flight recorder's traces to this NDJSON "
        "file (also read from $REPRO_FLIGHT_DUMP; CI uploads it as an "
        "artifact)",
    )
    args = parser.parse_args(argv)

    models = build_network_models(table2_network(), "matmul")
    sfs = tile_speed_functions(models, args.p)
    fleet = Fleet(sfs, name=f"smoke-p{args.p}")
    reference = Planner(fleet)

    bound = {} if args.warm_tier_size is None else {"warm_tier_size": args.warm_tier_size}
    config = ServeConfig(
        shards=args.shards, worker_mode=args.worker_mode, http_port=0, **bound,
    )
    failures = 0
    with start_in_thread(config) as handle:
        print(f"serve-smoke: listening on {handle.host}:{handle.port} "
              f"(http {handle.http_port}, {args.worker_mode} workers)")
        with ServeClient(handle.host, handle.port) as client:
            info = client.register_fleet(sfs, name=fleet.name)
            fingerprint = info["fingerprint"]
            if fingerprint != fleet.fingerprint:
                print("FAIL: wire fingerprint differs from local fingerprint")
                failures += 1

            # Mixed sequential traffic through the blocking client.
            rng = np.random.default_rng(0)
            sizes = [int(n) for n in rng.integers(1e5, int(fleet.capacity), 16)]
            for n in sizes[:4]:
                failures += _check_plan(client.plan(fingerprint, n), n, reference, sfs)
            for n, item in zip(sizes, client.plan_many(fingerprint, sizes)):
                failures += _check_plan(item, n, reference, sfs, "plan_many item")
            if client.health()["status"] != "ok":
                print("FAIL: health is not ok")
                failures += 1

            # Concurrent mixed load through the pipelined generator.
            load_sizes = [sizes[i % len(sizes)] for i in range(args.requests)]
            report = run_load(
                handle.host, handle.port, fingerprint, load_sizes,
                concurrency=args.concurrency,
            )
            print(f"serve-smoke: load {report.summary()}")
            if report.error_count or report.ok != args.requests:
                print("FAIL: load run saw errors or missing responses")
                failures += 1

            if args.warm_tier_size is not None:
                failures += _overflow_warm_tier(
                    client, fingerprint, sfs, reference, args.warm_tier_size
                )

            stats = client.stats()
            if stats["shed"] != 0:
                print(f"FAIL: {stats['shed']} requests were shed")
                failures += 1

        # The HTTP plane: health + Prometheus metrics.
        base = f"http://{handle.host}:{handle.http_port}"
        health = json.loads(urllib.request.urlopen(f"{base}/health").read())
        if health["fleets"] != 1:
            print(f"FAIL: http health reports {health['fleets']} fleets")
            failures += 1
        metrics = urllib.request.urlopen(f"{base}/metrics").read().decode()
        for family in ("serve_requests_total", "serve_shard_queue_depth"):
            if family not in metrics:
                print(f"FAIL: /metrics is missing {family}")
                failures += 1

        # The tracing plane: every served request leaves a retained trace
        # with a connected span tree reachable by id.
        traces = json.loads(
            urllib.request.urlopen(f"{base}/debug/traces?limit=1").read()
        )
        recorded = traces["stats"]["recorded"]
        if recorded < args.requests:
            print(f"FAIL: flight recorder saw {recorded} traces "
                  f"< {args.requests} load requests")
            failures += 1
        if traces["traces"]:
            tid = traces["traces"][0]["trace_id"]
            span_names = _span_names(base, tid)
            if "serve.shard.batch" not in span_names:
                print(f"FAIL: trace {tid} has no shard-side spans: {span_names}")
                failures += 1
        else:
            print("FAIL: /debug/traces returned no traces")
            failures += 1

        if failures and args.flight_dump:
            parent = os.path.dirname(args.flight_dump)
            if parent:
                os.makedirs(parent, exist_ok=True)
            count = handle.service.recorder.dump(args.flight_dump)
            print(f"serve-smoke: dumped {count} traces to {args.flight_dump}")

    if failures:
        print(f"serve-smoke: FAILED ({failures} checks)")
        return 1
    print("serve-smoke: OK (zero errors, zero shed, drained cleanly)")
    return 0


def _check_plan(item: dict, n: int, reference, sfs, what: str = "plan") -> int:
    """Failed checks (0-2) of one served plan: bit-identity to the direct
    planner, and the independent optimality certificate.  ``what`` names
    the plan in failure messages."""
    if not item.get("ok"):
        print(f"FAIL: {what}({n}) returned an error: {item}")
        return 1
    failures = 0
    want = reference.plan(n)
    if item["makespan"] != float(want.makespan) or item["allocation"] != [
        int(x) for x in want.allocation
    ]:
        print(f"FAIL: {what}({n}) differs from the direct planner")
        failures += 1
    cert = check_allocation(item["allocation"], sfs, n=n, makespan=item["makespan"])
    if not cert.ok:
        print(f"FAIL: {what}({n}) certificate: {cert.summary()}")
        failures += 1
    return failures


def _span_names(base: str, trace_id: str) -> set:
    """Every span name in the ``/debug/traces?id=`` span tree at ``base``."""
    detail = json.loads(
        urllib.request.urlopen(f"{base}/debug/traces?id={trace_id}").read()
    )
    names, stack = set(), [detail.get("spans") or {}]
    while stack:
        node = stack.pop()
        names.add(node.get("name"))
        stack.extend(node.get("children", []))
    return names


def _overflow_warm_tier(client, fingerprint, sfs, reference, bound: int) -> int:
    """Serve ``2 * bound`` fresh sizes through a ``bound``-entry warm tier.

    Every plan is checked by :func:`_check_plan` while the store evicts.
    Plans are written through before a batch answers, so right after the
    last ``plan_many`` returns the store must hold exactly ``bound``
    entries.  Returns the number of failed checks.
    """
    failures = 0
    rng = np.random.default_rng(1)
    sizes = sorted({int(n) for n in rng.integers(1e5, int(reference.fleet.capacity), 2 * bound)})
    for start in range(0, len(sizes), 16):
        chunk = sizes[start:start + 16]
        for n, item in zip(chunk, client.plan_many(fingerprint, chunk)):
            failures += _check_plan(item, n, reference, sfs)
    entries = client.stats()["tenancy"]["warm_tier"]["entries"]
    print(f"serve-smoke: {len(sizes)} fresh sizes through a {bound}-entry "
          f"warm tier -> {entries} entries")
    if entries != bound:
        print(f"FAIL: warm tier holds {entries} entries, expected its bound {bound}")
        failures += 1
    return failures


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
