"""End-to-end online refit: drift in, exact invalidation + new model out."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Fleet, Observation, Planner
from repro.core.options import PartitionOptions
from repro.model import OnlineBandRefitter
from repro.serve import OnlineRefitConfig, ServeClient, ServeError

from tests.conftest import make_pwl


def drifted(fn, factor=2.0, above=5e5):
    def speed(x):
        s = float(fn.speed(x))
        return s * factor if x >= above else s
    return speed


def drift_steps(machine, truth, count=100, lo=2e4, hi=2e6):
    return [
        Observation.from_step(machine, float(x), float(truth(x)), time=float(i))
        for i, x in enumerate(np.linspace(lo, hi, count))
    ]


def shard_row(stats, fingerprint):
    for payload in stats["shards"]:
        row = payload.get("fleets", {}).get(fingerprint)
        if row is not None:
            return row
    raise AssertionError(f"no shard row for {fingerprint}")


@pytest.fixture
def refit_server(start_server):
    def _boot(**kwargs):
        kwargs.setdefault(
            "online_refit", OnlineRefitConfig(min_observations=20, min_escaped=3)
        )
        return start_server(**kwargs)

    return _boot


class TestDriftIntegration:
    def test_band_shape_drift_refits_exactly_one_fleet(self, refit_server):
        fns_a = [make_pwl(200.0), make_pwl(300.0)]
        fns_b = [make_pwl(150.0)]
        handle = refit_server(shards=2)
        with ServeClient(handle.host, handle.port) as client:
            a = client.register_fleet(fns_a, name="drifting")["fingerprint"]
            b = client.register_fleet(fns_b, name="control")["fingerprint"]

            warm_a = [200_000, 400_000, 800_000]
            warm_b = [100_000, 300_000]
            for n in warm_a:
                client.plan(a, n)
            for n in warm_b:
                client.plan(b, n)

            truth = drifted(fns_a[0])
            recs = drift_steps(0, truth)
            doc = client.observe(a, recs)
            assert doc["accepted"] == len(recs)
            refit_doc = doc["refit"]
            assert refit_doc is not None
            assert refit_doc["machines"] == [0]
            # Exactly the drifted fleet's cached plans were dropped.
            assert refit_doc["invalidated"] == len(warm_a)
            assert refit_doc["fingerprint"] != a

            # Counters first: a thread-mode server shares this process's
            # registry, so the local determinism check below would add to
            # them.
            stats = client.stats()
            assert stats["fleets"][a]["model_fingerprint"] == refit_doc["fingerprint"]
            assert stats["fleets"][b]["model_fingerprint"] == b
            row_a, row_b = shard_row(stats, a), shard_row(stats, b)
            assert row_a["model_fingerprint"] == refit_doc["fingerprint"]
            assert row_a["cache_invalidations"] == len(warm_a)
            # The control fleet's cache was not flushed.
            assert row_b["cache_invalidations"] == 0
            assert row_b["cache_size"] == len(warm_b)

            refit_stats = stats["refit"]
            assert refit_stats["enabled"]
            assert refit_stats["counters"]["applied"] == 1
            assert refit_stats["counters"]["checks"] >= 1
            assert refit_stats["invalidated"] == len(warm_a)
            assert refit_stats["fleets"][a]["refits"] == 1

            # The server's refit is reproducible bit-for-bit locally from
            # the same observations (the knot fingerprint survives the
            # spec round-trip through the worker).
            local = OnlineBandRefitter(
                fns_a, min_escaped=3, name="drifting"
            ).refit(recs)
            assert local.shape_changed
            assert local.fingerprint_after == refit_doc["fingerprint"]

            # Plans keep flowing under the *original* serving fingerprint
            # and now come from the refitted model.
            opts = PartitionOptions()
            expect = Planner(
                local.fleet,
                algorithm="bisection",
                mode=opts.mode,
                refine=opts.refine,
            ).plan(700_000)
            item = client.plan(a, 700_000)
            assert item["allocation"] == [int(x) for x in expect.allocation]
            assert item["makespan"] == pytest.approx(expect.makespan)

    def test_reregistration_after_a_refit_keeps_the_refitted_model(
        self, refit_server
    ):
        """Registration is idempotent after a refit too: the same spec
        again neither reverts the model nor resets its refit state."""
        fns = [make_pwl(200.0), make_pwl(300.0)]
        handle = refit_server(shards=1)
        with ServeClient(handle.host, handle.port) as client:
            fp = client.register_fleet(fns, name="drifting")["fingerprint"]
            doc = client.observe(fp, drift_steps(0, drifted(fns[0])))
            refitted = doc["refit"]["fingerprint"]
            plan = client.plan(fp, 700_000)
            registered = Planner(Fleet(fns)).plan(700_000)
            assert plan["allocation"] != [int(x) for x in registered.allocation]

            info = client.register_fleet(fns, name="drifting")
            assert info["model_fingerprint"] == refitted
            stats = client.stats()
            assert stats["fleets"][fp]["model_fingerprint"] == refitted
            assert shard_row(stats, fp)["model_fingerprint"] == refitted
            assert stats["refit"]["fleets"][fp]["refits"] == 1
            assert client.plan(fp, 700_000) == plan

    def test_refitted_model_tracks_the_drifted_truth(self, refit_server):
        fns = [make_pwl(200.0)]
        handle = refit_server(shards=1)
        with ServeClient(handle.host, handle.port) as client:
            fp = client.register_fleet(fns, name="drift5pct")["fingerprint"]
            truth = drifted(fns[0])
            recs = drift_steps(0, truth, count=120)
            doc = client.observe(fp, recs)
            assert doc["refit"] is not None

            local = OnlineBandRefitter(
                fns, min_escaped=3, name="drift5pct"
            ).refit(recs)
            new_fn = local.functions[0]
            probe = np.linspace(6e5, 1.9e6, 30)
            rel = np.array(
                [abs(new_fn.speed(x) - truth(x)) / truth(x) for x in probe]
            )
            assert float(rel.max()) <= 0.05

    def test_in_band_observations_never_refit(self, refit_server):
        fns = [make_pwl(200.0)]
        handle = refit_server(shards=1)
        with ServeClient(handle.host, handle.port) as client:
            fp = client.register_fleet(fns, name="steady")["fingerprint"]
            recs = drift_steps(0, fns[0].speed, count=50)
            doc = client.observe(fp, recs)
            assert doc["accepted"] == 50
            assert doc["refit"] is None
            stats = client.stats()
            assert stats["fleets"][fp]["model_fingerprint"] == fp
            assert stats["refit"]["counters"]["applied"] == 0
            assert stats["refit"]["counters"]["checks"] >= 1

    def test_process_mode_refit_is_deterministic(self, refit_server):
        fns = [make_pwl(200.0), make_pwl(300.0)]
        handle = refit_server(shards=1, worker_mode="process")
        with ServeClient(handle.host, handle.port) as client:
            fp = client.register_fleet(fns, name="proc")["fingerprint"]
            client.plan(fp, 500_000)
            recs = drift_steps(0, drifted(fns[0]), count=60)
            doc = client.observe(fp, recs)
            assert doc["refit"] is not None
            assert doc["refit"]["invalidated"] == 1
            local = OnlineBandRefitter(fns, min_escaped=3, name="proc").refit(recs)
            assert doc["refit"]["fingerprint"] == local.fingerprint_after


class TestObserveWithoutRefit:
    def test_default_config_records_telemetry_only(self, start_server):
        fns = [make_pwl(200.0)]
        handle = start_server(shards=1)
        with ServeClient(handle.host, handle.port) as client:
            fp = client.register_fleet(fns, name="plain")["fingerprint"]
            doc = client.observe(fp, drift_steps(0, drifted(fns[0]), count=30))
            assert doc == {"accepted": 30, "refit": None}
            stats = client.stats()
            assert not stats["refit"]["enabled"]
            assert stats["refit"]["fleets"] == {}
            assert stats["telemetry"]["cells"] > 0


class TestObserveValidation:
    def test_unknown_fleet(self, start_server):
        handle = start_server(shards=1)
        with ServeClient(handle.host, handle.port) as client:
            with pytest.raises(ServeError) as err:
                client.observe("no-such-fleet", [{"machine": 0, "size": 10, "speed": 1.0}])
            assert err.value.code == "unknown_fleet"

    def test_malformed_observation_rejected(self, start_server, trio_sfs):
        handle = start_server(shards=1)
        with ServeClient(handle.host, handle.port) as client:
            fp = client.register_fleet(trio_sfs, name="v")["fingerprint"]
            with pytest.raises(ServeError) as err:
                client.observe(fp, [{"machine": 0, "size": -5, "speed": 1.0}])
            assert err.value.code == "invalid_request"

    def test_empty_observations_rejected(self, start_server, trio_sfs):
        handle = start_server(shards=1)
        with ServeClient(handle.host, handle.port) as client:
            fp = client.register_fleet(trio_sfs, name="v")["fingerprint"]
            response = client.call("observe", fleet=fp, observations=[])
            assert not response["ok"]
            assert response["error"]["code"] == "invalid_request"
