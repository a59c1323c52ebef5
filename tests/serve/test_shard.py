"""Shard pool: correctness, admission control, deadlines, drain.

The backlog tests use the ``worker_gate`` fixture: a register job whose
spec stalls inside the worker until released, so the bounded inbox can
be filled deterministically — no sleeps, no timing races.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from repro import ConfigurationError, Fleet, Planner
from repro.core.step_model import StepSpeedFunction
from repro.io import speed_function_to_dict
from repro.serve.protocol import (
    encode_frame,
    ok_response,
    speed_functions_from_fleet_spec,
)
from repro.serve.shard import ShardPool, result_to_dict


def _register(pool, spec):
    fingerprint = Fleet(
        speed_functions_from_fleet_spec(spec), name=spec.get("name") or None
    ).fingerprint
    payload = pool.register(spec, fingerprint).result(timeout=30)
    assert payload["ok"], payload
    assert payload["fingerprint"] == fingerprint
    return fingerprint


class TestSolving:
    def test_batch_matches_direct_planner(self, trio_sfs, trio_spec):
        fleet = Fleet(trio_sfs, name="trio")
        reference = Planner(fleet)
        sizes = [1000, 50_000, 400_000]
        with ShardPool(2, queue_depth=8) as pool:
            fp = _register(pool, trio_spec)
            assert fp == fleet.fingerprint
            items = [{"n": n, "deadline": None, "allocation": True} for n in sizes]
            payload = pool.submit_batch(fp, items).result(timeout=30)
        assert payload["ok"]
        for n, got in zip(sizes, payload["results"]):
            want = reference.plan(n)
            assert got["ok"]
            assert got["makespan"] == float(want.makespan)
            assert got["allocation"] == [int(x) for x in want.allocation]
            assert got["p"] == fleet.p

    @pytest.mark.parametrize("p", [64, 1080])
    def test_served_allocation_encodes_to_the_same_bytes(self, p):
        # result_to_dict lists the allocation with ndarray.tolist(); the
        # envelope must match the per-element int() list byte for byte.
        from repro.experiments import build_network_models, tile_speed_functions
        from repro.machines import table2_network

        fleet = Fleet(tile_speed_functions(
            build_network_models(table2_network(), "matmul"), p
        ))
        planner = Planner(fleet)
        for n in (0, 1, 7_919, 1_000_003, int(fleet.capacity) // 2):
            plan = planner.plan(n)
            per_int = {**result_to_dict(plan, allocation=False),
                       "allocation": [int(x) for x in plan.allocation]}
            assert encode_frame(ok_response(1, result_to_dict(plan))) == encode_frame(
                ok_response(1, per_int)
            )

    def test_allocation_flag_trims_the_wire_shape(self, trio_spec):
        with ShardPool(1, queue_depth=8) as pool:
            fp = _register(pool, trio_spec)
            payload = pool.submit_batch(
                fp, [{"n": 1000, "allocation": False}]
            ).result(timeout=30)
        (item,) = payload["results"]
        assert item["ok"] and "allocation" not in item

    def test_unknown_fleet_answers_per_item(self, trio_spec):
        with ShardPool(1, queue_depth=8) as pool:
            payload = pool.submit_batch(
                "not-registered", [{"n": 1}, {"n": 2}]
            ).result(timeout=30)
        assert [it["code"] for it in payload["results"]] == ["unknown_fleet"] * 2

    def test_infeasible_items_do_not_poison_the_batch(self, trio_sfs, trio_spec):
        fleet = Fleet(trio_sfs, name="trio")
        over = int(fleet.capacity) + 10
        with ShardPool(1, queue_depth=8) as pool:
            fp = _register(pool, trio_spec)
            payload = pool.submit_batch(
                fp, [{"n": 1000}, {"n": over}, {"n": -5}, {"n": 2000}]
            ).result(timeout=30)
        ok, bad_hi, bad_lo, ok2 = payload["results"]
        assert ok["ok"] and ok2["ok"]
        assert bad_hi["code"] == "infeasible"
        assert bad_lo["code"] == "infeasible"

    def test_an_unreachable_size_fails_alone(self):
        # Step boundaries are fractional, so sum(max_i) sits above the
        # sum(floor(max_i)) elements an integer plan can hold: a size in
        # between must fail alone, not take its batch peers with it.
        rng = np.random.default_rng(1080)
        sfs = [
            StepSpeedFunction(
                np.array([2e5, 8e5, 4e6]) * rng.uniform(0.6, 1.4),
                rng.uniform(40.0, 400.0)
                * np.array([1.0, rng.uniform(0.3, 0.7), rng.uniform(0.02, 0.15)]),
            )
            for _ in range(8)
        ]
        fleet = Fleet(sfs, name="steps")
        reachable = int(sum(math.floor(sf.max_size) for sf in sfs))
        assert fleet.pack.max_total == reachable < reachable + 1 <= fleet.capacity
        spec = {"name": "steps", "speed_functions": [speed_function_to_dict(sf) for sf in sfs]}
        with ShardPool(1, queue_depth=8) as pool:
            fp = _register(pool, spec)
            payload = pool.submit_batch(
                fp, [{"n": 1_000_000}, {"n": reachable + 1}]
            ).result(timeout=60)
        ok, over = payload["results"]
        assert ok["ok"], ok
        assert ok["allocation"] == Planner(fleet).plan(1_000_000).allocation.tolist()
        assert over["code"] == "infeasible"
        assert str(reachable) in over["message"]

    def test_expired_deadlines_are_answered_without_a_solve(self, trio_spec):
        with ShardPool(1, queue_depth=8) as pool:
            fp = _register(pool, trio_spec)
            payload = pool.submit_batch(
                fp,
                [
                    {"n": 1000, "deadline": time.time() - 1.0},
                    {"n": 2000, "deadline": time.time() + 60.0},
                ],
            ).result(timeout=30)
        expired, live = payload["results"]
        assert expired["code"] == "deadline_exceeded"
        assert live["ok"]

    def test_stats_report_shard_local_planners(self, trio_spec):
        with ShardPool(2, queue_depth=8) as pool:
            fp = _register(pool, trio_spec)
            pool.submit_batch(fp, [{"n": 1000}]).result(timeout=30)
            pool.submit_batch(fp, [{"n": 1000}]).result(timeout=30)
            payloads = [f.result(timeout=30) for f in pool.stats_all()]
        owner = pool.shard_for(fp)
        by_shard = {p["shard"]: p["fleets"] for p in payloads}
        assert fp in by_shard[owner]
        assert by_shard[owner][fp]["cache_hits"] >= 1  # the replayed query
        assert all(fp not in fleets for s, fleets in by_shard.items() if s != owner)


class TestAdmissionControl:
    def test_full_inbox_sheds_instead_of_blocking(self, trio_spec, worker_gate):
        depth = 3
        with ShardPool(1, queue_depth=depth) as pool:
            fp = _register(pool, trio_spec)
            pool.register(worker_gate.spec(), "gate-routing-key")
            assert worker_gate.entered.wait(timeout=10)  # worker is now busy
            accepted = [
                pool.submit_batch(fp, [{"n": 1000}]) for _ in range(depth)
            ]
            assert all(f is not None for f in accepted)  # zero drops below the limit
            assert pool.submit_batch(fp, [{"n": 1000}]) is None  # the shed
            assert pool.submit_batch(fp, [{"n": 1000}]) is None
            worker_gate.release()
            for f in accepted:
                assert f.result(timeout=30)["results"][0]["ok"]

    def test_submit_after_close_raises(self, trio_spec):
        pool = ShardPool(1, queue_depth=4)
        fp = _register(pool, trio_spec)
        pool.close()
        with pytest.raises(ConfigurationError, match="closed"):
            pool.submit_batch(fp, [{"n": 1}])
        with pytest.raises(ConfigurationError, match="closed"):
            pool.register(trio_spec, fp)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ShardPool(0)
        with pytest.raises(ConfigurationError):
            ShardPool(1, queue_depth=0)
        with pytest.raises(ConfigurationError):
            ShardPool(1, mode="fibers")


class TestDrain:
    def test_drain_finishes_queued_work(self, trio_spec, worker_gate):
        pool = ShardPool(1, queue_depth=8)
        fp = _register(pool, trio_spec)
        pool.register(worker_gate.spec(), "gate-routing-key")
        assert worker_gate.entered.wait(timeout=10)
        queued = [pool.submit_batch(fp, [{"n": 1000 * (k + 1)}]) for k in range(3)]
        worker_gate.release()
        pool.close(drain=True)  # must not return before the backlog is done
        for f in queued:
            payload = f.result(timeout=1)  # already resolved by close()
            assert payload["ok"] and payload["results"][0]["ok"]

    def test_abrupt_close_fails_pending_futures(self, trio_spec, worker_gate):
        pool = ShardPool(1, queue_depth=8)
        fp = _register(pool, trio_spec)
        pool.register(worker_gate.spec(), "gate-routing-key")
        assert worker_gate.entered.wait(timeout=10)
        queued = [pool.submit_batch(fp, [{"n": 1000}]) for _ in range(3)]
        worker_gate.release()
        pool.close(drain=False)
        for f in queued:
            payload = f.result(timeout=30)
            # Either the worker got to it before the abandon, or it was
            # failed fast — but it must never hang or vanish.
            assert payload["ok"] or payload["code"] == "shutting_down"

    def test_close_is_idempotent(self, trio_spec):
        pool = ShardPool(1, queue_depth=4)
        _register(pool, trio_spec)
        pool.close()
        pool.close()
        assert pool.closed


class TestTiming:
    """A batch payload carries verdicts and a timing record, never spans."""

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_every_batch_reports_its_timing(self, trio_sfs, trio_spec, mode):
        over = int(Fleet(trio_sfs).capacity) + 10
        pool = ShardPool(1, mode=mode, queue_depth=8)
        try:
            fp = _register(pool, trio_spec)
            payload = pool.submit_batch(
                fp, [{"n": 1000}, {"n": over}, {"n": 2000}]
            ).result(timeout=60)
            unknown = pool.submit_batch("not-registered", [{"n": 1}]).result(60)
        finally:
            pool.close(drain=True)
        assert set(payload) == {"ok", "results", "timing"}
        timing = payload["timing"]
        assert set(timing) == {"shard", "started", "seconds", "solve_seconds", "sizes"}
        assert timing["shard"] == 0 and timing["sizes"] == 2
        assert 0.0 < timing["solve_seconds"] <= timing["seconds"]
        assert abs(timing["started"] - time.time()) < 60
        assert unknown["timing"]["sizes"] == 0
        assert unknown["timing"]["solve_seconds"] == 0.0


class TestProcessMode:
    def test_process_workers_solve_and_drain(self, trio_sfs, trio_spec):
        fleet = Fleet(trio_sfs, name="trio")
        reference = Planner(fleet)
        pool = ShardPool(2, mode="process", queue_depth=8)
        try:
            fp = _register(pool, trio_spec)
            payload = pool.submit_batch(
                fp, [{"n": 1000, "allocation": True}]
            ).result(timeout=60)
            (item,) = payload["results"]
            want = reference.plan(1000)
            assert item["makespan"] == float(want.makespan)
            assert item["allocation"] == [int(x) for x in want.allocation]
        finally:
            pool.close(drain=True)
