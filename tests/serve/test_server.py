"""End-to-end server tests: real sockets, both listeners, clean drain."""

from __future__ import annotations

import json
import socket
import threading
import urllib.request

import pytest

from repro import Fleet, Planner
from repro.serve import (
    AsyncServeClient,
    ServeClient,
    ServeError,
    run_load,
)
from tests.serve.conftest import poll_until


@pytest.fixture
def server(start_server):
    return start_server(shards=2, queue_depth=16, http_port=0)


class TestTcp:
    def test_full_session_over_the_wire(self, server, trio_sfs):
        fleet = Fleet(trio_sfs, name="trio")
        reference = Planner(fleet)
        with ServeClient(server.host, server.port) as client:
            info = client.register_fleet(trio_sfs, name="trio")
            assert info["fingerprint"] == fleet.fingerprint

            got = client.plan(info["fingerprint"], 123_456)
            want = reference.plan(123_456)
            assert got["makespan"] == float(want.makespan)
            assert got["allocation"] == [int(x) for x in want.allocation]

            batch = client.plan_many(info["fingerprint"], [1000, 2000, 3000])
            assert [item["n"] for item in batch] == [1000, 2000, 3000]

            assert client.health()["status"] == "ok"
            stats = client.stats()
            assert stats["shed"] == 0
            assert info["fingerprint"] in stats["fleets"]

    def test_error_envelopes_reach_the_client(self, server):
        with ServeClient(server.host, server.port) as client:
            with pytest.raises(ServeError) as err:
                client.plan("no-such-fleet", 100)
            assert err.value.code == "unknown_fleet"
            response = client.call("plan", fleet="x")  # missing n
            assert response["error"]["code"] == "invalid_request"

    def test_malformed_frames_get_error_responses(self, server):
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"this is not json\n")
            response = json.loads(reader.readline())
            assert response["ok"] is False
            assert response["error"]["code"] == "invalid_request"
            # The connection survives a bad frame; a good one still works.
            sock.sendall(b'{"v": 1, "id": 5, "op": "health"}\n')
            response = json.loads(reader.readline())
            assert response["ok"] and response["id"] == 5

    def test_pipelined_client_keeps_requests_in_flight(self, server, trio_sfs):
        import asyncio

        with ServeClient(server.host, server.port) as client:
            fp = client.register_fleet(trio_sfs, name="trio")["fingerprint"]

        async def scenario():
            client = await AsyncServeClient.connect(server.host, server.port)
            try:
                results = await asyncio.gather(
                    *(client.plan(fp, 1000 * (k + 1)) for k in range(10))
                )
            finally:
                await client.close()
            return results

        results = asyncio.run(scenario())
        assert [r["n"] for r in results] == [1000 * (k + 1) for k in range(10)]


class TestHttp:
    def test_health_stats_metrics_and_rpc(self, server, trio_sfs, serve_obs):
        serve_obs.enable()
        base = f"http://{server.host}:{server.http_port}"
        with ServeClient(server.host, server.port) as client:
            fp = client.register_fleet(trio_sfs, name="trio")["fingerprint"]
            client.plan(fp, 1000)

        health = json.loads(urllib.request.urlopen(f"{base}/health").read())
        assert health["status"] == "ok" and health["fleets"] == 1

        stats = json.loads(urllib.request.urlopen(f"{base}/stats").read())
        assert fp in stats["fleets"]

        metrics_response = urllib.request.urlopen(f"{base}/metrics")
        assert "text/plain" in metrics_response.headers["Content-Type"]
        metrics = metrics_response.read().decode()
        assert "serve_requests_total" in metrics
        assert "serve_shard_queue_depth" in metrics
        assert "# TYPE serve_request_seconds histogram" in metrics

        rpc = urllib.request.Request(
            f"{base}/v1/rpc",
            data=json.dumps({"v": 1, "id": 1, "op": "plan", "fleet": fp, "n": 500}).encode(),
            method="POST",
        )
        doc = json.loads(urllib.request.urlopen(rpc).read())
        assert doc["ok"] and doc["result"]["n"] == 500

    def test_http_errors(self, server):
        base = f"http://{server.host}:{server.http_port}"
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{base}/nope")
        assert err.value.code == 404
        rpc = urllib.request.Request(
            f"{base}/v1/rpc", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(rpc)
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"]["code"] == "invalid_request"


class TestLoadAndDrain:
    def test_concurrent_load_sees_zero_drops(self, server, trio_sfs):
        with ServeClient(server.host, server.port) as client:
            fp = client.register_fleet(trio_sfs, name="trio")["fingerprint"]
        sizes = [1000 + (k % 7) * 500 for k in range(60)]
        report = run_load(
            server.host, server.port, fp, sizes, concurrency=12, connections=4
        )
        assert report.ok == len(sizes)
        assert report.errors == {}
        assert report.plans_per_second > 0
        assert 0 < report.p50 <= report.p99
        with ServeClient(server.host, server.port) as client:
            assert client.stats()["shed"] == 0

    def test_stop_drains_in_flight_requests(self, start_server, trio_sfs, worker_gate):
        # With the shard held, plan 1 keeps its lane busy and plan 2 waits
        # on the lane server-side; stop() must flush and answer both
        # rather than dropping the connection.
        handle = start_server(shards=1, queue_depth=16)
        with ServeClient(handle.host, handle.port) as client:
            fp = client.register_fleet(trio_sfs, name="trio")["fingerprint"]
        handle.service.pool.register(worker_gate.spec(), "gate-key")
        assert worker_gate.entered.wait(timeout=10)

        # Polled on the server's own loop, so it can't race the
        # accept/read path.
        async def _lane():
            return sum(handle.service.health()["queue_depths"]), len(handle.service._waiting)

        with socket.create_connection((handle.host, handle.port), timeout=30) as sock:
            reader = sock.makefile("rb")
            for req_id, n, parked in ((1, 1000, (1, 0)), (2, 2000, (1, 1))):
                sock.sendall(
                    json.dumps({"v": 1, "id": req_id, "op": "plan", "fleet": fp,
                                "n": n}).encode() + b"\n"
                )
                poll_until(
                    lambda: handle.call(_lane()) == parked,
                    message=f"request {req_id} never reached its lane",
                )
            stopper = threading.Thread(target=handle.stop, kwargs={"drain": True})
            stopper.start()
            # The drain flushes the waiting lane before the gate opens.
            poll_until(
                lambda: sum(handle.service.health()["queue_depths"]) == 2,
                message="the drain never flushed the waiting lane",
            )
            worker_gate.release()
            stopper.join(timeout=60)
            assert not stopper.is_alive()
            responses = [json.loads(reader.readline()) for _ in range(2)]
            assert sorted((r["id"], r["result"]["n"]) for r in responses) == [
                (1, 1000), (2, 2000)
            ]

    def test_server_refuses_new_connections_after_stop(self, start_server):
        handle = start_server(shards=1, queue_depth=8)
        host, port = handle.host, handle.port
        handle.stop()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2)
