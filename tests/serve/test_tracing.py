"""End-to-end request tracing: one connected tree per served request.

A shard worker (thread OR process mode) builds no spans: its batch
payload carries a small timing record, and the service builds each
traced request's batch, solve and item spans from it under the
request's root span.  Every served request yields a single connected
trace, retrievable by trace id from the flight recorder and
``/debug/traces``, with the latency histogram carrying the trace id as
an exemplar.  A request's tree holds its own item spans only, so its
size does not depend on how many peers shared its batch; the peers share
the batch and solve span ids instead.
"""

from __future__ import annotations

import asyncio
import json
import urllib.request

import pytest

from repro import obs
from repro.serve.protocol import PROTOCOL_VERSION
from repro.serve.service import PlanningService, ServeConfig
from tests.serve.conftest import eventually
from tests.serve.test_service import run_service


def plan_frame(fp, n, req_id=1, **extra):
    return {"v": PROTOCOL_VERSION, "id": req_id, "op": "plan", "fleet": fp,
            "n": n, "allocation": False, **extra}


def plan_many_frame(fp, ns, req_id=1, **extra):
    return {"v": PROTOCOL_VERSION, "id": req_id, "op": "plan_many", "fleet": fp,
            "ns": list(ns), "allocation": False, **extra}


def _tree(trace):
    """(root, names) of a recorded trace's span tree."""
    assert trace is not None and trace.root is not None
    nodes = list(trace.root.walk())
    return trace.root, [s.name for s in nodes]


def _batch(trace):
    """The ``serve.shard.batch`` span under a trace's root."""
    return next(s for s in trace.root.children if s.name == "serve.shard.batch")


def _solve_id(batch):
    (solve,) = [s for s in batch.children if s.name == "serve.shard.solve"]
    return solve.span_id


def _assert_connected(trace):
    """One tree, one trace id, linked ids."""
    root, names = _tree(trace)
    assert root.name in ("serve.plan", "serve.plan_many")
    assert "serve.shard.batch" in names
    assert "serve.shard.solve" in names
    assert "serve.shard.item" in names
    for node in root.walk():
        assert node.trace_id == trace.trace_id, f"{node.name} lost the trace id"
    batch = _batch(trace)
    assert batch.parent_id == root.span_id
    for child in batch.children:
        assert child.parent_id == batch.span_id


class TestConnectedTrace:
    def test_thread_mode_request_yields_one_connected_tree(self, trio_sfs):
        async def scenario(service):
            info = await service.register_fleet(trio_sfs, name="trio")
            resp = await service.handle(plan_frame(info["fingerprint"], 250_000))
            return resp, service.recorder.get(resp["trace_id"])

        resp, trace = run_service(scenario)
        assert resp["ok"]
        assert trace.ok and trace.op == "plan" and trace.n == 250_000
        _assert_connected(trace)

    def test_process_mode_request_yields_one_connected_tree(self, trio_sfs):
        config = ServeConfig(shards=1, worker_mode="process", queue_depth=8)

        async def scenario(service):
            info = await service.register_fleet(trio_sfs, name="trio")
            resp = await service.handle(plan_frame(info["fingerprint"], 250_000))
            return resp, service.recorder.get(resp["trace_id"])

        resp, trace = run_service(scenario, config)
        assert resp["ok"]
        _assert_connected(trace)  # built from the timing record off the pipe

    def test_latency_histogram_carries_the_trace_id_as_exemplar(self, trio_sfs):
        async def scenario(service):
            info = await service.register_fleet(trio_sfs, name="trio")
            return await service.handle(plan_frame(info["fingerprint"], 250_000))

        resp = run_service(scenario)
        hist = obs.get_registry().histogram(
            "serve.request.seconds", labels={"op": "plan"}
        )
        recorded = [e for e in hist.exemplars if e is not None]
        assert [e[0] for e in recorded] == [resp["trace_id"]]

    def test_client_supplied_context_is_honoured_and_echoed(self, trio_sfs):
        client_trace = {"trace_id": "c0ffee" * 5 + "ab", "span_id": "ab" * 8}

        async def scenario(service):
            info = await service.register_fleet(trio_sfs, name="trio")
            resp = await service.handle(
                plan_frame(info["fingerprint"], 250_000, trace=client_trace)
            )
            return resp, service.recorder.get(resp["trace_id"])

        resp, trace = run_service(scenario)
        assert resp["trace_id"] == client_trace["trace_id"]
        # The server's root span is a CHILD of the client's span.
        assert trace.root.parent_id == client_trace["span_id"]
        _assert_connected(trace)

    def test_malformed_trace_is_rejected_not_crashed(self, trio_sfs):
        async def scenario(service):
            info = await service.register_fleet(trio_sfs, name="trio")
            return await service.handle(
                plan_frame(info["fingerprint"], 1000, trace={"trace_id": "XYZ"})
            )

        resp = run_service(scenario)
        assert not resp["ok"]
        assert resp["error"]["code"] == "invalid_request"

    def test_error_response_still_carries_a_trace_id(self, trio_sfs):
        async def scenario(service):
            return await service.handle(plan_frame("no-such-fleet", 1000))

        resp = run_service(scenario)
        assert not resp["ok"]
        tid = resp["trace_id"]

        async def scenario2(service):
            resp = await service.handle(plan_frame("no-such-fleet", 1000))
            return service.recorder.get(resp["trace_id"])

        trace = run_service(scenario2)
        assert trace.status == "unknown_fleet"
        assert len(tid) == 32


class TestBatchFanout:
    def test_coalesced_requests_get_distinct_traces_sharing_one_batch(
        self, trio_sfs
    ):
        sizes = [10_000, 20_000, 30_000]

        async def scenario(service):
            info = await service.register_fleet(trio_sfs, name="trio")
            fp = info["fingerprint"]
            resps = await asyncio.gather(
                *(service.handle(plan_frame(fp, n, req_id=i))
                  for i, n in enumerate(sizes))
            )
            stats = await service.stats()
            traces = [service.recorder.get(r["trace_id"]) for r in resps]
            return resps, stats, traces

        resps, stats, traces = run_service(scenario)
        assert all(r["ok"] for r in resps)
        assert stats["batches"] == 1                 # one window served all three
        ids = {r["trace_id"] for r in resps}
        assert len(ids) == len(sizes)                # fan-out: distinct traces
        for trace, n in zip(traces, sizes):
            _assert_connected(trace)
            batch = _batch(trace)
            assert batch.attrs["items"] == len(sizes)  # counts the whole batch
            items = [s for s in batch.children if s.name == "serve.shard.item"]
            assert [s.attrs["n"] for s in items] == [n]  # only its own item
            assert "request_span_id" not in items[0].attrs
        # The shared batch span id is the link between the peers.
        assert len({_batch(t).span_id for t in traces}) == 1

    def test_plan_many_is_one_trace_with_one_subtree(self, trio_sfs):
        async def scenario(service):
            info = await service.register_fleet(trio_sfs, name="trio")
            resp = await service.handle(
                plan_many_frame(info["fingerprint"], [1000, 2000, 3000])
            )
            return resp, service.recorder.get(resp["trace_id"])

        resp, trace = run_service(scenario)
        assert resp["ok"]
        assert trace.op == "plan_many"
        _assert_connected(trace)
        # The shared span must be attached exactly once, not per item.
        batches = [s for s in trace.root.children if s.name == "serve.shard.batch"]
        assert len(batches) == 1
        items = [s for s in batches[0].children if s.name == "serve.shard.item"]
        assert len(items) == 3

    def test_plan_many_worst_item_code_becomes_the_trace_status(self, trio_sfs):
        async def scenario(service):
            info = await service.register_fleet(trio_sfs, name="trio")
            resp = await service.handle(
                plan_many_frame(info["fingerprint"], [1000, 10**18])
            )
            return resp, service.recorder.get(resp["trace_id"])

        resp, trace = run_service(scenario)
        assert resp["ok"]  # envelope ok; per-item verdicts inside
        assert trace.status == "infeasible"
        assert not trace.ok


class TestSpansPerRequest:
    """A request's span count does not depend on its batch's size."""

    @staticmethod
    def _one_batch(trio_sfs, frames_for):
        """Gather the frames on one service; they must share one batch."""
        async def scenario(service):
            info = await service.register_fleet(trio_sfs, name="trio")
            resps = await asyncio.gather(
                *(service.handle(f) for f in frames_for(info["fingerprint"]))
            )
            stats = await service.stats()
            return resps, stats, [service.recorder.get(r["trace_id"]) for r in resps]

        resps, stats, traces = run_service(scenario)
        assert all(r["ok"] for r in resps)
        assert stats["batches"] == 1
        for trace in traces:
            _assert_connected(trace)
        return traces

    @pytest.mark.parametrize("size", [1, 4, 16])
    def test_a_plan_has_four_spans_at_any_batch_size(self, trio_sfs, size):
        traces = self._one_batch(
            trio_sfs,
            lambda fp: [plan_frame(fp, 1000 * (k + 1), req_id=k) for k in range(size)],
        )
        for trace in traces:
            names = sorted(s.name for s in trace.root.walk())
            assert names == ["serve.plan", "serve.shard.batch",
                             "serve.shard.item", "serve.shard.solve"]
            assert _batch(trace).attrs["items"] == size
        # Every request of the batch reuses one batch id and one solve id.
        assert len({_batch(t).span_id for t in traces}) == 1
        assert len({_solve_id(_batch(t)) for t in traces}) == 1

    @pytest.mark.parametrize("k", [1, 5])
    def test_a_plan_many_of_k_has_k_plus_three_spans(self, trio_sfs, k):
        (trace,) = self._one_batch(
            trio_sfs,
            lambda fp: [plan_many_frame(fp, [1000 * (j + 1) for j in range(k)])],
        )
        assert len(list(trace.root.walk())) == k + 3
        items = [s for s in _batch(trace).children if s.name == "serve.shard.item"]
        assert [s.attrs["n"] for s in items] == [1000 * (j + 1) for j in range(k)]
        assert len({s.span_id for s in items}) == k


class TestFailureRetention:
    def test_burst_retains_every_shed_trace_while_ring_stays_bounded(
        self, trio_sfs, worker_gate
    ):
        depth, extra = 3, 12
        config = ServeConfig(
            shards=1, queue_depth=depth,
            flight_capacity=4,       # far smaller than the burst
        )

        async def scenario(service):
            info = await service.register_fleet(trio_sfs, name="trio")
            fp = info["fingerprint"]
            service.pool.register(worker_gate.spec(), "gate-key")
            assert worker_gate.entered.wait(timeout=10)
            tasks = [
                asyncio.ensure_future(
                    service.handle(plan_many_frame(fp, [1000 + k], req_id=k))
                )
                for k in range(depth + extra)
            ]
            await eventually(
                lambda: int(service._shed.value) == extra,
                message="overflow requests were never shed",
            )
            worker_gate.release()
            resps = await asyncio.gather(*tasks)
            return resps, service.recorder

        resps, recorder = run_service(scenario, config)
        shed_ids = {
            r["trace_id"] for r in resps
            if not r["result"]["results"][0]["ok"]
        }
        assert len(shed_ids) == extra
        retained = recorder.traces(errors_only=True)
        # 100% of the shed traces survive even though the FIFO ring
        # (capacity 4) rolled over during the burst.
        assert shed_ids <= {t.trace_id for t in retained}
        assert all(t.status == "overloaded" for t in retained)
        stats = recorder.stats()
        assert stats["ring_size"] <= 4
        assert stats["evicted"] > 0

    def test_deadline_expiry_is_recorded(self, trio_sfs, worker_gate):
        from tests.serve.test_service import _wait_past_queued_deadline

        config = ServeConfig(shards=1, queue_depth=8)

        async def scenario(service):
            info = await service.register_fleet(trio_sfs, name="trio")
            service.pool.register(worker_gate.spec(), "gate-key")
            assert worker_gate.entered.wait(timeout=10)
            task = asyncio.ensure_future(
                service.handle(
                    plan_frame(info["fingerprint"], 1000, timeout_ms=30)
                )
            )
            await _wait_past_queued_deadline(service, 0.030)
            worker_gate.release()
            resp = await task
            return resp, service.recorder.get(resp["trace_id"])

        resp, trace = run_service(scenario, config)
        assert resp["error"]["code"] == "deadline_exceeded"
        assert trace.status == "deadline_exceeded"
        assert trace.root.status == "error"


class TestSampling:
    def test_tracing_off_records_nothing_and_counts_sampled(self, trio_sfs):
        config = ServeConfig(shards=1, queue_depth=8, tracing=False)

        async def scenario(service):
            info = await service.register_fleet(trio_sfs, name="trio")
            resp = await service.handle(plan_frame(info["fingerprint"], 1000))
            return resp, service.recorder.stats()

        resp, stats = run_service(scenario, config)
        assert resp["ok"]
        assert "trace_id" not in resp
        assert stats["recorded"] == 0
        assert stats["sampled"] == 1

    def test_stats_exposes_the_trace_counter_group(self, trio_sfs):
        async def scenario(service):
            info = await service.register_fleet(trio_sfs, name="trio")
            await service.handle(plan_frame(info["fingerprint"], 1000))
            return await service.stats()

        stats = run_service(scenario)
        assert stats["trace"]["recorded"] == 1
        assert stats["trace"]["sampled"] == 0


class TestHttpPlane:
    @pytest.fixture
    def live(self, start_server, trio_sfs):
        from repro.serve import ServeClient

        handle = start_server(http_port=0)
        with ServeClient(handle.host, handle.port) as client:
            info = client.register_fleet(trio_sfs, name="trio")
            resp_trace = client.call(
                "plan", fleet=info["fingerprint"], n=250_000, allocation=False
            )
        base = f"http://{handle.host}:{handle.http_port}"
        return base, resp_trace["trace_id"]

    def _get(self, url, headers=None):
        req = urllib.request.Request(url, headers=headers or {})
        with urllib.request.urlopen(req) as resp:
            return resp.status, resp.headers, resp.read().decode()

    def test_debug_traces_lists_and_fetches_by_id(self, live):
        base, trace_id = live
        status, _, body = self._get(f"{base}/debug/traces")
        assert status == 200
        listing = json.loads(body)
        assert trace_id in [t["trace_id"] for t in listing["traces"]]
        assert listing["stats"]["recorded"] >= 1

        status, _, body = self._get(f"{base}/debug/traces?id={trace_id}")
        detail = json.loads(body)
        assert detail["trace_id"] == trace_id
        names = set()
        stack = [detail["spans"]]
        while stack:
            node = stack.pop()
            names.add(node["name"])
            stack.extend(node.get("children", []))
        assert {"serve.plan", "serve.shard.batch", "serve.shard.item"} <= names

    def test_debug_traces_unknown_id_is_404(self, live):
        base, _ = live
        with pytest.raises(urllib.error.HTTPError) as err:
            self._get(f"{base}/debug/traces?id=feedface")
        err.value.close()  # the error owns the response socket
        assert err.value.code == 404

    def test_metrics_negotiates_openmetrics_with_exemplars(self, live):
        base, trace_id = live
        _, headers, body = self._get(
            f"{base}/metrics",
            headers={"Accept": "application/openmetrics-text"},
        )
        assert "application/openmetrics-text" in headers["Content-Type"]
        assert body.rstrip().endswith("# EOF")
        assert f'trace_id="{trace_id}"' in body

    def test_metrics_default_is_classic_prometheus(self, live):
        base, _ = live
        _, headers, body = self._get(f"{base}/metrics")
        assert headers["Content-Type"].startswith("text/plain")
        assert "# EOF" not in body
        assert "trace_id" not in body
