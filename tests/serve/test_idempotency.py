"""Concurrency stress tests for ``idempotency_key`` dedup.

The contract under test (see ``docs/multitenancy.md``): within the
server's window, every request carrying the same idempotency key gets
the byte-identical original response, and the underlying solve happens
**exactly once** — whether the duplicates arrive concurrently (they
coalesce onto the in-flight solve) or as later retries (they replay the
remembered response).  After the window evicts a key, a retry solves
afresh — and, plans being deterministic, still answers bit-identically.

Proof of "exactly once" is counter-based, not timing-based: the obs
registry's ``serve.idempotent.*`` counters and the per-shard planner
cold/warm solve counts must add up.

Two behaviours set the window apart from the plan caches below it, and
are why it exists: a keyed replay is not charged quota again, and a
keyed replay returns the plan it first answered even after an online
refit changed the fleet's model.
"""

from __future__ import annotations

import threading

import pytest

from repro.serve import OnlineRefitConfig, ServeClient, ServeError
from repro.serve.tenancy import TenancyConfig, TenantQuota
from tests.conftest import make_pwl

from .conftest import poll_until
from .test_online_refit import drift_steps, drifted


def _register(client, trio_sfs):
    return client.register_fleet(trio_sfs, name="trio")["fingerprint"]


def _shard_solves(client, fingerprint) -> dict:
    """Aggregate cold/warm solve counts for one fleet across shards."""
    stats = client.stats()
    totals = {"cold": 0, "warm": 0, "cache_hits": 0}
    for shard in stats["shards"]:
        fleet = (shard.get("fleets") or {}).get(fingerprint)
        if fleet:
            totals["cold"] += int(fleet.get("cold_plans", 0))
            totals["warm"] += int(fleet.get("warm_plans", 0))
            totals["cache_hits"] += int(fleet.get("cache_hits", 0))
    return totals


def test_concurrent_duplicates_solve_exactly_once(start_server, trio_sfs):
    """N threads, same key: one solve, N byte-identical responses."""
    handle = start_server(shards=2)
    threads = 16
    with ServeClient(handle.host, handle.port) as admin:
        fingerprint = _register(admin, trio_sfs)

        barrier = threading.Barrier(threads)
        results: list[dict | None] = [None] * threads
        errors: list[Exception] = []

        def worker(idx: int) -> None:
            try:
                with ServeClient(handle.host, handle.port) as client:
                    barrier.wait(timeout=30.0)
                    results[idx] = client.plan(
                        fingerprint, 600_000,
                        tenant="stress", idempotency_key="the-one-key",
                    )
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        pool = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60.0)
        assert not errors, errors
        assert all(r is not None for r in results)
        first = results[0]
        assert first["ok"] and first["allocation"]
        for r in results[1:]:
            assert r == first, "duplicate response differs from the original"

        idem = admin.stats()["tenancy"]["idempotency"]
        assert idem["misses"] == 1, idem
        assert idem["hits"] + idem["coalesced"] == threads - 1, idem
        solves = _shard_solves(admin, fingerprint)
        assert solves["cold"] + solves["warm"] == 1, solves


def test_sequential_retries_replay_without_resolving(start_server, trio_sfs):
    """Later retries hit the remembered response: still one solve."""
    handle = start_server(shards=1)
    with ServeClient(handle.host, handle.port) as client:
        fingerprint = _register(client, trio_sfs)
        first = client.plan(fingerprint, 500_000, idempotency_key="retry-me")
        for _ in range(5):
            assert client.plan(
                fingerprint, 500_000, idempotency_key="retry-me"
            ) == first
        idem = client.stats()["tenancy"]["idempotency"]
        assert idem["misses"] == 1 and idem["hits"] == 5, idem
        assert _shard_solves(client, fingerprint)["cold"] == 1


def test_duplicate_after_eviction_resolves_bit_identically(start_server, trio_sfs):
    """Past the window the key is gone; the fresh solve matches exactly."""
    handle = start_server(shards=1, idempotency_window=2)
    with ServeClient(handle.host, handle.port) as client:
        fingerprint = _register(client, trio_sfs)
        original = client.plan(fingerprint, 700_000, idempotency_key="evictee")
        # Two younger keys push "evictee" out of the 2-entry window.
        client.plan(fingerprint, 710_000, idempotency_key="young-1")
        client.plan(fingerprint, 720_000, idempotency_key="young-2")
        poll_until(
            lambda: client.stats()["tenancy"]["idempotency"]["evictions"] >= 1,
            message="the window never evicted",
        )
        replay = client.plan(fingerprint, 700_000, idempotency_key="evictee")
        assert replay == original, "post-eviction solve is not bit-identical"
        idem = client.stats()["tenancy"]["idempotency"]
        assert idem["misses"] == 4, idem  # evictee twice + two youngs


def test_distinct_keys_and_tenants_do_not_coalesce(start_server, trio_sfs):
    """The dedup identity is (fleet, op, tenant, key) — all four matter."""
    handle = start_server(shards=1)
    with ServeClient(handle.host, handle.port) as client:
        fingerprint = _register(client, trio_sfs)
        client.plan(fingerprint, 400_000, tenant="t1", idempotency_key="k")
        client.plan(fingerprint, 400_000, tenant="t2", idempotency_key="k")
        client.plan(fingerprint, 400_000, tenant="t1", idempotency_key="k2")
        idem = client.stats()["tenancy"]["idempotency"]
        assert idem["misses"] == 3 and idem["hits"] == 0, idem


def test_plan_many_idempotency_replays_whole_batch(start_server, trio_sfs):
    handle = start_server(shards=1)
    with ServeClient(handle.host, handle.port) as client:
        fingerprint = _register(client, trio_sfs)
        ns = [300_000, 500_000, 800_000]
        first = client.plan_many(fingerprint, ns, idempotency_key="batch-key")
        assert all(item["ok"] for item in first)
        replay = client.plan_many(fingerprint, ns, idempotency_key="batch-key")
        assert replay == first
        idem = client.stats()["tenancy"]["idempotency"]
        assert idem["misses"] == 1 and idem["hits"] == 1, idem


def test_requests_without_keys_never_touch_the_window(start_server, trio_sfs):
    handle = start_server(shards=1)
    with ServeClient(handle.host, handle.port) as client:
        fingerprint = _register(client, trio_sfs)
        client.plan(fingerprint, 450_000)
        client.plan(fingerprint, 450_000)
        idem = client.stats()["tenancy"]["idempotency"]
        assert idem["misses"] == 0 and idem["remembered"] == 0, idem


def test_window_zero_disables_dedup(start_server, trio_sfs):
    handle = start_server(shards=1, idempotency_window=0)
    with ServeClient(handle.host, handle.port) as client:
        fingerprint = _register(client, trio_sfs)
        a = client.plan(fingerprint, 480_000, idempotency_key="k")
        b = client.plan(fingerprint, 480_000, idempotency_key="k")
        assert a == b  # deterministic planner, but solved twice
        idem = client.stats()["tenancy"]["idempotency"]
        assert idem["window"] == 0 and idem["misses"] == 0, idem


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_concurrent_duplicates_across_worker_modes(start_server, trio_sfs, mode):
    """The coalescing happens in the front-end: mode must not matter."""
    handle = start_server(shards=1, worker_mode=mode)
    threads = 8
    with ServeClient(handle.host, handle.port) as admin:
        fingerprint = _register(admin, trio_sfs)
        barrier = threading.Barrier(threads)
        results: list[dict | None] = [None] * threads

        def worker(idx: int) -> None:
            with ServeClient(handle.host, handle.port) as client:
                barrier.wait(timeout=30.0)
                results[idx] = client.plan(
                    fingerprint, 550_000, idempotency_key="mode-key"
                )

        pool = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60.0)
        assert all(r == results[0] for r in results) and results[0] is not None
        idem = admin.stats()["tenancy"]["idempotency"]
        assert idem["misses"] == 1, idem


def test_keyed_replay_is_not_charged_quota(start_server, trio_sfs):
    """A one-token bucket pays for the first keyed plan only: its replay
    still answers, while an unkeyed second plan is throttled."""
    handle = start_server(
        shards=1,
        tenancy=TenancyConfig(default=TenantQuota(rate=0.001, burst=1)),
    )
    with ServeClient(handle.host, handle.port) as client:
        fingerprint = _register(client, trio_sfs)
        first = client.plan(fingerprint, 500_000, idempotency_key="paid-once")
        assert client.plan(fingerprint, 500_000, idempotency_key="paid-once") == first
        with pytest.raises(ServeError) as excinfo:
            client.plan(fingerprint, 500_000)
        assert excinfo.value.code == "throttled"


def test_keyed_replay_is_pinned_across_a_refit(start_server):
    """After a refit an unkeyed plan comes from the new model, but a keyed
    replay returns the plan the key first answered."""
    fns = [make_pwl(200.0), make_pwl(300.0)]
    handle = start_server(
        shards=1,
        online_refit=OnlineRefitConfig(min_observations=20, min_escaped=3),
    )
    with ServeClient(handle.host, handle.port) as client:
        fingerprint = client.register_fleet(fns, name="drifting")["fingerprint"]
        pinned = client.plan(fingerprint, 700_000, idempotency_key="pre-refit")
        assert client.observe(fingerprint, drift_steps(0, drifted(fns[0])))["refit"]
        refitted = client.plan(fingerprint, 700_000)
        assert refitted["allocation"] != pinned["allocation"]
        assert client.plan(fingerprint, 700_000, idempotency_key="pre-refit") == pinned
