"""RouterService end to end: routing, fallback, resharding, typed errors.

These tests boot real topologies — a router thread over member nodes —
and drive them through :class:`~repro.serve.client.ServeClient`, exactly
as an external caller would.  Thread-mode nodes keep most tests fast;
the fallback bit-identity contract additionally runs against process
nodes, because a SIGKILLed process and an abruptly-stopped thread fail
differently on the wire and both must leave replica answers exact.
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster import RouterConfig, start_thread_node
from repro.planner import Fleet, Planner
from repro.serve import OnlineRefitConfig
from repro.serve.client import ServeClient, run_load
from tests.conftest import make_pwl
from tests.cluster.conftest import cluster_poll_until as poll_until
from tests.serve.test_online_refit import drift_steps, drifted

SIZES = [900, 2_400, 5_600, 11_000, 23_000]


def register(client: ServeClient, sfs, name: str = "fleet") -> str:
    return client.register_fleet(sfs, name=name)["fingerprint"]


def assert_bit_identical(client: ServeClient, fingerprint: str, planner: Planner):
    """Every routed plan equals the direct planner, makespan and allocation."""
    for n in SIZES:
        got = client.plan(fingerprint, n)
        want = planner.plan(n)
        assert got["makespan"] == float(want.makespan)
        assert got["allocation"] == [int(x) for x in want.allocation]


class TestRouting:
    def test_routed_plans_are_bit_identical_to_direct_planner(
        self, cluster, trio_sfs
    ):
        booted = cluster(2)
        planner = Planner(Fleet(trio_sfs))
        with ServeClient(booted.host, booted.port) as client:
            fp = register(client, trio_sfs)
            assert_bit_identical(client, fp, planner)
            stats = client.stats()
        assert stats["router"]["routed_primary"] == len(SIZES)
        assert stats["router"]["routed_fallback"] == 0

    def test_unknown_fleet_is_a_typed_error(self, cluster):
        booted = cluster(1)
        with ServeClient(booted.host, booted.port) as client:
            resp = client.call("plan", fleet="not-a-fingerprint", n=1000)
        assert resp["ok"] is False
        assert resp["error"]["code"] == "unknown_fleet"

    def test_register_replicates_to_the_replica_set(self, cluster, trio_sfs):
        booted = cluster(3, config=RouterConfig(replication=2))
        with ServeClient(booted.host, booted.port) as client:
            info = client.register_fleet(trio_sfs, name="trio")
        assert len(info["registered"]) == 2
        assert info["registered"] == info["nodes"]
        planner = Planner(Fleet(trio_sfs))
        # Each replica holds the fleet and answers directly, bit-for-bit.
        for node_id in info["registered"]:
            node = booted.node_by_id(node_id)
            with ServeClient(node.host, node.port) as direct:
                assert_bit_identical(direct, info["fingerprint"], planner)


class TestFallback:
    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_killed_primary_falls_back_bit_identically(
        self, cluster, trio_sfs, mode
    ):
        booted = cluster(3, mode=mode, config=RouterConfig(replication=2))
        planner = Planner(Fleet(trio_sfs))
        with ServeClient(booted.host, booted.port) as client:
            fp = register(client, trio_sfs)
            status = client.call("cluster_status")["result"]
            primary = status["fleets"][fp]["nodes"][0]
            booted.node_by_id(primary).kill()
            assert_bit_identical(client, fp, planner)
            stats = client.stats()
        assert stats["router"]["routed_fallback"] == len(SIZES)
        assert stats["router"]["routed_primary"] == 0

    def test_all_replicas_dead_is_a_typed_unavailable(self, cluster, trio_sfs):
        booted = cluster(1)
        with ServeClient(booted.host, booted.port) as client:
            fp = register(client, trio_sfs)
            booted.nodes[0].kill()
            resp = client.call("plan", fleet=fp, n=1000)
        assert resp["ok"] is False
        assert resp["error"]["code"] == "unavailable"

    def test_fallback_increments_the_obs_counter(
        self, cluster, trio_sfs, cluster_obs
    ):
        booted = cluster(2, config=RouterConfig(replication=2))
        with ServeClient(booted.host, booted.port) as client:
            fp = register(client, trio_sfs)
            status = client.call("cluster_status")["result"]
            primary = status["fleets"][fp]["nodes"][0]
            booted.node_by_id(primary).kill()
            client.plan(fp, 1234)
        fallback = cluster_obs.get_registry().counter("cluster.route.fallback")
        assert fallback.value == 1


class TestResync:
    def test_resync_after_a_refit_keeps_the_refitted_plan(self, cluster):
        """A recovered node is re-registered with the fleet's original spec;
        that must not revert the model the node refitted from telemetry."""
        fns = [make_pwl(200.0), make_pwl(300.0)]
        booted = cluster(
            1,
            online_refit=OnlineRefitConfig(min_observations=20, min_escaped=3),
        )
        node_id = booted.nodes[0].node_id
        with ServeClient(booted.host, booted.port) as client:
            fp = register(client, fns, name="drifting")
            assert client.observe(fp, drift_steps(0, drifted(fns[0])))["refit"]
            refitted = client.plan(fp, 700_000)
            assert booted.router.call(booted.router.service._resync_node(node_id)) == 1
            again = client.plan(fp, 700_000)
        assert again["allocation"] == refitted["allocation"]
        assert again["makespan"] == refitted["makespan"]


class TestResharding:
    def fleet_variants(self, count: int):
        """``count`` fleets with distinct fingerprints (distinct speeds)."""
        return [
            [make_pwl(90.0 + 7 * k), make_pwl(200.0 + 13 * k)]
            for k in range(count)
        ]

    def test_join_rebalances_and_reregisters_minimally(self, cluster):
        booted = cluster(2, config=RouterConfig(replication=2))
        variants = self.fleet_variants(6)
        with ServeClient(booted.host, booted.port) as client:
            fps = [
                register(client, sfs, name=f"v{k}")
                for k, sfs in enumerate(variants)
            ]
            before = {
                fp: tuple(doc["nodes"])
                for fp, doc in client.call("cluster_status")["result"][
                    "fleets"
                ].items()
            }
            joiner = start_thread_node("joiner")
            booted.nodes.append(joiner)  # the fixture now owns its teardown
            joined = client.call(
                "cluster_join",
                host=joiner.host, port=joiner.port, http_port=joiner.http_port,
            )
            assert joined["ok"], joined
            assert joined["result"]["registered"] == joined["result"][
                "fleets_moved"
            ]
            after = client.call("cluster_status")["result"]
            assert joiner.node_id in {n["node_id"] for n in after["nodes"]}
            moved = 0
            for fp in fps:
                now = tuple(after["fleets"][fp]["nodes"])
                if now == before[fp]:
                    continue
                moved += 1
                # A changed set only ever gained the joiner (tail displaced).
                assert joiner.node_id in now
                survivors = [n for n in now if n != joiner.node_id]
                assert survivors == list(before[fp][: len(survivors)])
            assert moved == joined["result"]["fleets_moved"]
            # The joiner can serve what it gained: ask it directly.
            for fp in fps:
                if joiner.node_id in after["fleets"][fp]["nodes"]:
                    k = fps.index(fp)
                    planner = Planner(Fleet(variants[k]))
                    with ServeClient(joiner.host, joiner.port) as direct:
                        got = direct.plan(fp, 3000)
                    assert got["makespan"] == float(planner.plan(3000).makespan)

    def test_rejoin_is_idempotent(self, cluster):
        booted = cluster(2)
        member = booted.nodes[0]
        with ServeClient(booted.host, booted.port) as client:
            resp = client.call(
                "cluster_join", host=member.host, port=member.port
            )
        assert resp["ok"]
        assert resp["result"].get("already_member") is True
        assert resp["result"]["fleets_moved"] == 0

    def test_leave_during_load_answers_every_request(self, cluster, trio_sfs):
        """Drain-during-reshard: a graceful leave mid-load drops nothing."""
        booted = cluster(2, config=RouterConfig(replication=2))
        requests = 160
        with ServeClient(booted.host, booted.port) as client:
            fp = register(client, trio_sfs)
            primary = client.call("cluster_status")["result"]["fleets"][fp][
                "nodes"
            ][0]

            sizes = [SIZES[i % len(SIZES)] + i for i in range(requests)]
            box: dict = {}

            def _load():
                box["report"] = run_load(
                    booted.host, booted.port, fp, sizes,
                    concurrency=4, connections=2, allocation=True,
                )

            loader = threading.Thread(target=_load, daemon=True)
            loader.start()
            # Fire the leave once the load is demonstrably in flight.
            poll_until(
                lambda: client.stats()["router"]["requests"] > requests // 8,
                message="load generator never got going",
            )
            left = client.call("cluster_leave", node=primary)
            loader.join(timeout=120.0)
            assert not loader.is_alive(), "load generator hung across the leave"
            assert left["ok"], left
            assert left["result"]["drained"] is True

            after = client.call("cluster_status")["result"]
            assert primary not in {n["node_id"] for n in after["nodes"]}
            planner = Planner(Fleet(trio_sfs))
            assert_bit_identical(client, fp, planner)

        report = box["report"]
        assert report.error_count == 0, f"leave dropped work: {report.errors}"
        assert report.ok == requests

    def test_leave_of_unknown_node_is_refused(self, cluster):
        booted = cluster(1)
        with ServeClient(booted.host, booted.port) as client:
            resp = client.call("cluster_leave", node="10.9.8.7:1")
        assert resp["ok"] is False
        assert resp["error"]["code"] == "invalid_request"
