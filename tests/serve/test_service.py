"""PlanningService: batching, correctness, backpressure, drain, dispatch.

These tests drive the transport-agnostic service directly on a private
event loop — no sockets — which is exactly how the TCP/HTTP listeners
use it.  The acceptance-critical behaviours live here: concurrent plans
coalesce into one batch, overload sheds with ``overloaded`` (and nothing
below the admission limit is dropped), and drain answers every admitted
request before shutting the pool down.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import Fleet, Planner
from repro.serve.protocol import ProtocolError
from repro.serve.service import PlanningService, ServeConfig
from tests.serve.conftest import eventually


def run_service(coro_fn, config=None):
    """Start a service, run ``coro_fn(service)``, always drain."""

    async def main():
        service = PlanningService(config or ServeConfig(shards=1, queue_depth=8))
        await service.start()
        try:
            return await coro_fn(service)
        finally:
            await service.drain()

    return asyncio.run(main())


class TestPlanning:
    def test_plan_matches_direct_planner_bit_for_bit(self, trio_sfs):
        fleet = Fleet(trio_sfs, name="trio")
        want = Planner(fleet).plan(250_000)

        async def scenario(service):
            info = await service.register_fleet(trio_sfs, name="trio")
            assert info["fingerprint"] == fleet.fingerprint
            return await service.plan(info["fingerprint"], 250_000)

        got = run_service(scenario)
        assert got["ok"]
        assert got["makespan"] == float(want.makespan)
        assert got["allocation"] == [int(x) for x in want.allocation]

    def test_concurrent_plans_coalesce_into_one_batch(self, trio_sfs):
        sizes = [10_000, 20_000, 30_000, 40_000]

        async def scenario(service):
            info = await service.register_fleet(trio_sfs, name="trio")
            results = await asyncio.gather(
                *(service.plan(info["fingerprint"], n) for n in sizes)
            )
            return results, await service.stats()

        results, stats = run_service(scenario)
        assert all(r["ok"] for r in results)
        assert [r["n"] for r in results] == sizes
        assert stats["batches"] == 1  # one flush answered all four
        assert stats["shed"] == 0

    def test_batch_reaching_max_batch_flushes_early(self, trio_sfs, worker_gate):
        config = ServeConfig(shards=1, max_batch=3, queue_depth=8)

        async def scenario(service):
            fp = (await service.register_fleet(trio_sfs, name="trio"))["fingerprint"]
            first = await _busy_lane(service, fp, worker_gate)
            # Three arrivals fill the busy lane: they leave as a second
            # job before the first one answers.
            rest = [asyncio.ensure_future(service.plan(fp, n)) for n in (200, 300, 400)]
            await _inbox_holds(service, 2)
            worker_gate.release()
            results = await asyncio.wait_for(asyncio.gather(first, *rest), timeout=20)
            return results, await service.stats()

        results, stats = run_service(scenario, config)
        assert all(r["ok"] for r in results)
        assert stats["batches"] == 2

    def test_plan_many_never_waits_on_a_busy_lane(self, trio_sfs, worker_gate):
        async def scenario(service):
            fp = (await service.register_fleet(trio_sfs, name="trio"))["fingerprint"]
            first = await _busy_lane(service, fp, worker_gate)
            many = asyncio.ensure_future(service.plan_many(fp, [200, 300]))
            await _inbox_holds(service, 2)  # queued while the lane is busy
            worker_gate.release()
            return await asyncio.wait_for(asyncio.gather(first, many), timeout=20)

        first, many = run_service(scenario)
        assert first["ok"] and all(r["ok"] for r in many)

    def test_busy_lane_arrivals_leave_together_when_its_batch_answers(
        self, trio_sfs, worker_gate
    ):
        async def scenario(service):
            fp = (await service.register_fleet(trio_sfs, name="trio"))["fingerprint"]
            first = await _busy_lane(service, fp, worker_gate)
            rest = [
                asyncio.ensure_future(service.plan(fp, n))
                for n in (200, 300, 400, 500)
            ]
            await eventually(
                lambda: sum(map(len, service._waiting.values())) == 4,
                message="the busy lane's arrivals never queued",
            )
            for _ in range(3):
                await asyncio.sleep(0)  # no tick may flush a busy lane
            assert sum(service.health()["queue_depths"]) == 1
            worker_gate.release()
            # A lane that never sent its waiting plans would hang here.
            results = await asyncio.wait_for(asyncio.gather(first, *rest), timeout=20)
            sizes = service._batch_size
            return results, await service.stats(), (sizes.count, sizes.sum, sizes.counts[0])

        results, stats, sizes = run_service(scenario)
        assert [r["n"] for r in results if r["ok"]] == [100, 200, 300, 400, 500]
        assert stats["batches"] == 2
        assert sizes == (2, 5.0, 1)  # two batches of 5 plans, one of size 1

    def test_an_idle_lane_that_fills_in_one_tick_then_waits(
        self, trio_sfs, worker_gate
    ):
        config = ServeConfig(shards=1, max_batch=3, queue_depth=8)

        async def scenario(service):
            fp = (await service.register_fleet(trio_sfs, name="trio"))["fingerprint"]
            service.pool.register(worker_gate.spec(), "gate-key")
            assert worker_gate.entered.wait(timeout=10)
            # Five same-tick plans on an idle lane: three fill it and
            # leave at once, so the other two wait on a busy lane.
            plans = [
                asyncio.ensure_future(service.plan(fp, n))
                for n in (100, 200, 300, 400, 500)
            ]
            await eventually(
                lambda: sum(map(len, service._waiting.values())) == 2,
                message="the lane's last two plans never queued",
            )
            for _ in range(3):
                await asyncio.sleep(0)  # the idle lane's tick must not flush
            assert sum(service.health()["queue_depths"]) == 1
            worker_gate.release()
            results = await asyncio.wait_for(asyncio.gather(*plans), timeout=20)
            sizes = service._batch_size
            return results, await service.stats(), (sizes.count, sizes.sum)

        results, stats, sizes = run_service(scenario, config)
        assert [r["n"] for r in results if r["ok"]] == [100, 200, 300, 400, 500]
        assert stats["batches"] == 2
        assert sizes == (2, 5.0)

    def test_unknown_fleet_and_registration_idempotence(self, trio_sfs):
        async def scenario(service):
            missing = await service.plan("no-such-fp", 100)
            first = await service.register_fleet(trio_sfs, name="trio")
            second = await service.register_fleet(trio_sfs, name="trio")
            return missing, first, second

        missing, first, second = run_service(scenario)
        assert missing["code"] == "unknown_fleet"
        assert first == second  # same spec: idempotent, no rebuild


async def _inbox_holds(service, jobs: int) -> None:
    """Wait until the shard inboxes hold ``jobs`` jobs (no worker round-trip)."""
    await eventually(
        lambda: sum(service.health()["queue_depths"]) == jobs,
        message=f"the shard inbox never held {jobs} job(s)",
    )


async def _busy_lane(service, fingerprint: str, worker_gate, n: int = 100):
    """Hold the shard, then send one plan: its lane stays busy until release.

    Returns the plan's task once its batch waits in the shard inbox.
    """
    service.pool.register(worker_gate.spec(), "gate-key")
    assert worker_gate.entered.wait(timeout=10)
    first = asyncio.ensure_future(service.plan(fingerprint, n))
    await _inbox_holds(service, 1)
    return first


async def _wait_past_queued_deadline(service, timeout_s: float) -> None:
    """Deadline sync without fixed sleeps: wait until the in-flight plan
    is queued behind the gated worker, then poll the loop clock past its
    deadline.  The deadline clock started *before* we observed the job in
    the queue, so once ``timeout_s`` elapses from that observation the
    request is guaranteed expired."""
    loop = asyncio.get_running_loop()
    # health() reads queue depths without a worker round-trip (stats()
    # would block behind the gated worker).
    await eventually(
        lambda: sum(service.health()["queue_depths"]) >= 1,
        message="the plan request was never queued",
    )
    observed = loop.time()
    await eventually(lambda: loop.time() >= observed + timeout_s + 0.02)


class TestBackpressure:
    def test_overload_sheds_and_below_limit_nothing_drops(self, trio_sfs, worker_gate):
        depth, extra = 3, 4
        config = ServeConfig(shards=1, queue_depth=depth)

        async def scenario(service):
            info = await service.register_fleet(trio_sfs, name="trio")
            fp = info["fingerprint"]
            service.pool.register(worker_gate.spec(), "gate-key")
            assert worker_gate.entered.wait(timeout=10)
            # Each plan_many is one job; the worker is busy, so exactly
            # queue_depth jobs are admitted and the rest shed.
            tasks = [
                asyncio.ensure_future(service.plan_many(fp, [1000 + k]))
                for k in range(depth + extra)
            ]

            # The shed counter is loop-local (stats() itself would block
            # behind the gated worker), so poll it directly.
            await eventually(
                lambda: int(service._shed.value) == extra,
                message="overflow requests were never shed",
            )
            worker_gate.release()
            results = [items[0] for items in await asyncio.gather(*tasks)]
            return results, await service.stats()

        results, stats = run_service(scenario, config)
        shed = [r for r in results if not r["ok"]]
        served = [r for r in results if r["ok"]]
        assert len(served) == depth  # zero drops below the admission limit
        assert len(shed) == extra
        assert {r["code"] for r in shed} == {"overloaded"}
        assert stats["shed"] == extra

    def test_deadline_expires_in_the_backlog(self, trio_sfs, worker_gate):
        config = ServeConfig(shards=1, queue_depth=8)

        async def scenario(service):
            info = await service.register_fleet(trio_sfs, name="trio")
            service.pool.register(worker_gate.spec(), "gate-key")
            assert worker_gate.entered.wait(timeout=10)
            task = asyncio.ensure_future(
                service.plan(info["fingerprint"], 1000, timeout_ms=30)
            )
            await _wait_past_queued_deadline(service, 0.030)
            worker_gate.release()
            return await task

        result = run_service(scenario, config)
        assert result["code"] == "deadline_exceeded"

    def test_default_timeout_applies_when_request_has_none(self, trio_sfs, worker_gate):
        config = ServeConfig(shards=1, queue_depth=8, default_timeout_ms=30)

        async def scenario(service):
            info = await service.register_fleet(trio_sfs, name="trio")
            service.pool.register(worker_gate.spec(), "gate-key")
            assert worker_gate.entered.wait(timeout=10)
            task = asyncio.ensure_future(service.plan(info["fingerprint"], 1000))
            await _wait_past_queued_deadline(service, 0.030)
            worker_gate.release()
            return await task

        assert run_service(scenario, config)["code"] == "deadline_exceeded"


class TestDrain:
    def test_drain_answers_waiting_lanes_then_refuses(self, trio_sfs, worker_gate):
        async def scenario(service):
            fp = (await service.register_fleet(trio_sfs, name="trio"))["fingerprint"]
            first = await _busy_lane(service, fp, worker_gate)
            # These wait on the busy lane; drain must flush them at once
            # rather than wait for the first batch to answer.
            tasks = [asyncio.ensure_future(service.plan(fp, n)) for n in (200, 300)]
            await eventually(
                lambda: len(service._waiting) == 1,
                message="requests never queued on the busy lane",
            )
            drain = asyncio.ensure_future(service.drain())
            await _inbox_holds(service, 2)
            worker_gate.release()
            await drain
            answered = await asyncio.wait_for(asyncio.gather(first, *tasks), timeout=20)
            after = await service.plan(fp, 400)
            with pytest.raises(ProtocolError) as err:
                await service.register_fleet(trio_sfs, name="again")
            return answered, after, err.value.code, service.health()

        answered, after, register_code, health = run_service(scenario)
        assert all(r["ok"] for r in answered)  # admitted work was served
        assert after["code"] == "shutting_down"
        assert register_code == "shutting_down"
        assert health["status"] == "draining"


class TestDispatchEnvelope:
    def test_handle_round_trips_every_op(self, trio_sfs, trio_spec):
        async def scenario(service):
            reg = await service.handle(
                {"v": 1, "id": 1, "op": "register_fleet", "name": "trio",
                 "speed_functions": trio_spec["speed_functions"]}
            )
            fp = reg["result"]["fingerprint"]
            plan = await service.handle(
                {"v": 1, "id": 2, "op": "plan", "fleet": fp, "n": 1000}
            )
            many = await service.handle(
                {"v": 1, "id": 3, "op": "plan_many", "fleet": fp,
                 "ns": [100, 10**15]}
            )
            health = await service.handle({"v": 1, "id": 4, "op": "health"})
            stats = await service.handle({"v": 1, "id": 5, "op": "stats"})
            return reg, plan, many, health, stats

        reg, plan, many, health, stats = run_service(scenario)
        assert reg["ok"] and reg["id"] == 1
        assert reg["result"]["fingerprint"] == Fleet(trio_sfs, name="trio").fingerprint
        assert plan["ok"] and plan["result"]["n"] == 1000
        ok_item, bad_item = many["result"]["results"]
        assert many["ok"]  # envelope ok; verdicts are per item
        assert ok_item["ok"]
        assert bad_item["code"] == "infeasible"
        assert health["result"]["status"] == "ok"
        assert reg["result"]["fingerprint"] in stats["result"]["fleets"]

    def test_handle_never_raises_on_garbage(self):
        async def scenario(service):
            return (
                await service.handle("not a frame"),
                await service.handle({"v": 99, "op": "plan"}),
                await service.handle({"v": 1, "op": "warp"}),
                await service.handle({"v": 1, "op": "plan", "fleet": "fp"}),
            )

        not_obj, bad_v, bad_op, bad_fields = run_service(scenario)
        assert not_obj["error"]["code"] == "invalid_request"
        assert bad_v["error"]["code"] == "unsupported_version"
        assert bad_op["error"]["code"] == "unknown_op"
        assert bad_fields["error"]["code"] == "invalid_request"

    def test_request_metrics_flow_to_the_registry(self, trio_sfs, serve_obs):
        serve_obs.enable()

        async def scenario(service):
            info = await service.register_fleet(trio_sfs, name="trio")
            await service.handle(
                {"v": 1, "id": 1, "op": "plan", "fleet": info["fingerprint"], "n": 10}
            )
            await service.handle({"v": 1, "id": 2, "op": "bogus"})

        run_service(scenario)
        text = serve_obs.to_prometheus()
        assert 'serve_request_seconds_count{op="plan"} 1' in text
        assert 'serve_request_seconds_count{op="invalid"} 1' in text
        assert "serve_requests_total 2" in text
        assert 'serve_responses_total{status="ok"} 1' in text
        assert 'serve_responses_total{status="error"} 1' in text
