"""Coherence tests for the tiered plan cache behind shard workers.

Layer under test: :class:`repro.planner.tiered.TieredPlanCache` — a
per-shard :class:`~repro.planner.cache.PlanCache` LRU (L1) backed by a
pool-wide :class:`~repro.planner.tiered.WarmPlanStore` (L2, write-through)
— and its wiring through :class:`repro.serve.shard.ShardPool`:

* a killed-and-restarted shard re-answers replayed keys from the warm
  tier (no cold re-solve), in **both** worker modes;
* ``invalidate(fingerprint)`` is exact: both tiers drop that fleet's
  plans and nothing of a sibling fleet's;
* an invalidated plan is gone from both tiers as soon as ``invalidate``
  returns;
* stripped values: the heavy warm-start ``region`` never crosses into
  the shared store;
* the store's FIFO bound, in-process and hosted in a process pool's
  manager, also under racing writers, and the hosted store's one round
  trip per operation;
* a closed pool's store answers misses instead of raising;
* re-registering a fleet leaves no stranded cache and no thread behind.
"""

from __future__ import annotations

import gc
import sys
import threading
from multiprocessing.managers import BaseProxy

import pytest

from repro.core.bisection import partition_bisection
from repro.planner import Fleet, Planner, TieredPlanCache, WarmPlanStore
from repro.serve.protocol import speed_functions_from_fleet_spec
from repro.serve.shard import ShardPool
from tests.conftest import make_pwl


@pytest.fixture
def pair_specs(trio_spec):
    """Two sibling fleets with distinct fingerprints, as wire specs."""
    other = dict(trio_spec)
    other["name"] = "quartet"
    other["speed_functions"] = trio_spec["speed_functions"] + [
        trio_spec["speed_functions"][0]
    ]
    return trio_spec, other


def _fingerprint(spec) -> str:
    return Fleet(speed_functions_from_fleet_spec(spec)).fingerprint


def _solve(pool, fingerprint, sizes):
    items = [{"n": n, "deadline": None, "allocation": True} for n in sizes]
    payload = pool.submit_batch(fingerprint, items).result(60)
    assert payload["ok"], payload
    assert all(item.get("ok") for item in payload["results"]), payload
    return payload["results"]


def _fleet_stats(pool, fingerprint):
    shard = pool.shard_for(fingerprint)
    payload = pool.stats_all()[shard].result(60)
    assert payload["ok"], payload
    return payload["fleets"][fingerprint]


SIZES = [400_000 + 7_000 * i for i in range(8)]


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_restart_recovers_warm_hits_and_bit_identity(mode, pair_specs):
    """Replay after a shard restart: warm-tier hits, identical plans."""
    spec, _ = pair_specs
    fingerprint = _fingerprint(spec)
    pool = ShardPool(2, mode=mode)
    try:
        assert pool.register(spec, fingerprint).result(60)["ok"]
        before = _solve(pool, fingerprint, SIZES)

        pool.restart_shard(pool.shard_for(fingerprint))

        after = _solve(pool, fingerprint, SIZES)
        assert after == before, "restarted shard returned different plans"
        stats = _fleet_stats(pool, fingerprint)
        warm = stats.get("warm")
        assert warm is not None, "restarted planner lost its warm tier"
        # The acceptance bar: at least half the replayed keys answered
        # from the warm tier (here all of them are, but the contract is
        # the floor).
        assert warm["hits"] >= len(SIZES) // 2, warm
        assert stats["cold_plans"] == 0, stats
    finally:
        pool.close()


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_invalidate_evicts_both_tiers_exactly(mode, pair_specs):
    """Invalidation drops one fleet from L1+L2 and spares its sibling."""
    spec_a, spec_b = pair_specs
    fp_a, fp_b = _fingerprint(spec_a), _fingerprint(spec_b)
    assert fp_a != fp_b
    pool = ShardPool(2, mode=mode)
    try:
        assert pool.register(spec_a, fp_a).result(60)["ok"]
        assert pool.register(spec_b, fp_b).result(60)["ok"]
        _solve(pool, fp_a, SIZES)
        _solve(pool, fp_b, SIZES)
        store = pool.warm_store
        assert store is not None
        entries_before = len(store)
        assert entries_before >= 2

        dropped = store.invalidate(fp_a)
        assert dropped >= 1

        # Sibling entries intact: replaying fp_b after a restart of its
        # shard still hits warm (its plans survived the invalidation).
        pool.restart_shard(pool.shard_for(fp_b))
        _solve(pool, fp_b, SIZES)
        stats_b = _fleet_stats(pool, fp_b)
        assert stats_b["warm"]["hits"] >= len(SIZES) // 2, stats_b
        # And fp_a's warm entries are really gone: its restarted worker
        # re-solves cold.
        pool.restart_shard(pool.shard_for(fp_a))
        _solve(pool, fp_a, SIZES)
        stats_a = _fleet_stats(pool, fp_a)
        assert stats_a["warm"]["hits"] == 0, stats_a
        assert stats_a["cold_plans"] >= 1, stats_a
    finally:
        pool.close()


def test_tiered_cache_write_through_and_promotion():
    """Unit-level: a plan is in L2 when the solve returns; L2 read-through
    promotes into L1."""
    sfs = [make_pwl(100.0), make_pwl(220.0)]
    fleet = Fleet(sfs, name="unit")
    store = WarmPlanStore.local(maxsize=64)
    cache = TieredPlanCache(8, warm=store, name="unit-a")
    planner = Planner(fleet, cache=cache)
    result = planner.plan(500_000)
    assert len(store) >= 1

    # A sibling planner sharing the store starts warm: its first
    # query is answered by promotion, not a cold solve.
    sibling_cache = TieredPlanCache(8, warm=store, name="unit-b")
    sibling = Planner(fleet, cache=sibling_cache)
    again = sibling.plan(500_000)
    assert list(again.allocation) == list(result.allocation)
    assert again.makespan == result.makespan
    assert sibling.stats().cold_plans == 0
    assert sibling_cache.warm_stats()["hits"] == 1


def test_invalidate_leaves_no_plan_in_either_tier():
    """An invalidated plan is gone from both tiers once invalidate returns."""
    sfs = [make_pwl(100.0), make_pwl(220.0)]
    fleet = Fleet(sfs, name="unit")
    store = WarmPlanStore.local(maxsize=64)
    cache = TieredPlanCache(8, warm=store, name="race")
    planner = Planner(fleet, cache=cache)
    planner.plan(500_000)
    cache.invalidate(fleet.fingerprint)
    assert len(store) == 0
    assert cache.get((fleet.fingerprint, 500_000, "bisection",
                      "greedy", "tangent")) is None


def test_reregistration_leaves_one_cache_and_no_thread(trio_spec):
    """Six registrations with different cache sizes rebuild the planner
    six times: the replaced caches are garbage, and none left a thread."""
    fingerprint = _fingerprint(trio_spec)
    pool = ShardPool(1, mode="thread")
    try:
        threads = None
        for cache_size in range(16, 22):
            spec = {**trio_spec, "cache_size": cache_size}
            assert pool.register(spec, fingerprint).result(60)["ok"]
            _solve(pool, fingerprint, SIZES)
            if threads is None:
                threads = set(threading.enumerate())
        gc.collect()
        caches = [
            obj for obj in gc.get_objects()
            if isinstance(obj, TieredPlanCache) and obj.warm_store is pool.warm_store
        ]
        assert len(caches) == 1, len(caches)
        # No thread started since the first registration (a thread from an
        # earlier test may still exit meanwhile, so compare sets).
        assert set(threading.enumerate()) <= threads
    finally:
        pool.close()


def test_warm_store_never_holds_regions():
    """The heavy warm-start region stays worker-local (stripped for L2)."""
    sfs = [make_pwl(100.0), make_pwl(220.0)]
    fleet = Fleet(sfs, name="unit")
    store = WarmPlanStore.local(maxsize=64)
    cache = TieredPlanCache(8, warm=store, name="strip")
    planner = Planner(fleet, cache=cache)
    planner.plan(500_000)
    values = [store.get(key) for key in store.keys()]
    assert values and all(
        getattr(v, "region", None) is None for v in values
    ), "a region object leaked into the shared store"


def test_warm_plans_stay_bit_identical_to_cold_bisection(pair_specs):
    """End-to-end invariant: warm-tier answers == cold partition_bisection."""
    spec, _ = pair_specs
    fingerprint = _fingerprint(spec)
    sfs = speed_functions_from_fleet_spec(spec)
    pool = ShardPool(1, mode="thread")
    try:
        assert pool.register(spec, fingerprint).result(60)["ok"]
        _solve(pool, fingerprint, SIZES)
        pool.restart_shard(0)
        served = _solve(pool, fingerprint, SIZES)
        for n, item in zip(SIZES, served):
            cold = partition_bisection(n, sfs)
            assert item["allocation"] == list(cold.allocation), n
            assert item["makespan"] == cold.makespan, n
    finally:
        pool.close()


@pytest.fixture(params=["local", "hosted"])
def bounded_store(request):
    """A 4-entry store: in-process, or hosted by a process pool's manager."""
    if request.param == "local":
        yield WarmPlanStore.local(4)
        return
    pool = ShardPool(1, mode="process", warm_tier_size=4)
    try:
        yield pool.warm_store
    finally:
        pool.close()


def test_put_past_the_bound_evicts_exactly_the_oldest_key(bounded_store):
    keys = [("fp", n) for n in range(6)]
    for key in keys[:4]:
        bounded_store.put(key, key[1])
    bounded_store.put(keys[4], 4)
    assert bounded_store.keys() == keys[1:5]
    bounded_store.put(keys[5], 5)
    assert bounded_store.keys() == keys[2:6]
    assert bounded_store.get(keys[0]) is None
    assert bounded_store.get(keys[5]) == 5
    assert len(bounded_store) == bounded_store.maxsize == 4


def test_reput_of_a_stored_key_evicts_nothing(bounded_store):
    keys = [("fp", n) for n in range(5)]
    for key in keys[:4]:
        bounded_store.put(key, key[1])
    bounded_store.put(keys[0], "again")
    assert bounded_store.keys() == keys[:4]
    assert bounded_store.get(keys[0]) == "again"
    # The re-put kept its FIFO place: the next new key evicts it.
    bounded_store.put(keys[4], 4)
    assert bounded_store.keys() == keys[1:5]


def test_store_invalidate_is_exact_across_sibling_fingerprints(bounded_store):
    for key in [("a", 1), ("b", 1), ("a", 2), ("ab", 3)]:
        bounded_store.put(key, key[1])
    assert bounded_store.invalidate("a") == 2
    assert bounded_store.keys() == [("b", 1), ("ab", 3)]
    assert bounded_store.invalidate("a") == 0


class _PyHashKey(tuple):
    """A tuple key hashed in Python code, so a thread switch can land
    between a put's choice of the oldest key and its ``del``."""

    def __hash__(self):
        return tuple.__hash__(self)


def test_concurrent_puts_keep_the_bound_and_each_writers_fifo(bounded_store):
    """Eight writers race puts of distinct keys into the 4-entry store.

    A lost update in the check-then-evict step would leave the store over
    or under its bound, or fail a writer's ``del`` of an already-evicted
    key; FIFO means the keys that survive from any one writer are the
    last ones it put.
    """
    writers, per_writer = 8, 1000
    finished = []

    def write(w):
        for i in range(per_writer):
            bounded_store.put(_PyHashKey((w, i)), i)
        finished.append(w)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert sorted(finished) == list(range(writers))
    keys = bounded_store.keys()
    assert len(bounded_store) == len(keys) == len(set(keys)) == bounded_store.maxsize
    for w in range(writers):
        kept = sorted(i for writer, i in keys if writer == w)
        assert kept == list(range(per_writer - len(kept), per_writer)), (w, keys)


def test_hosted_store_operations_are_one_round_trip_each(monkeypatch):
    """A read and a full-store put each cost one proxy call, no key copy."""
    pool = ShardPool(1, mode="process", warm_tier_size=4)
    try:
        store = pool.warm_store
        for n in range(4):
            store.put(("fp", n), n)
        calls = []
        callmethod = BaseProxy._callmethod

        def counting(self, methodname, args=(), kwds={}):
            calls.append(methodname)
            return callmethod(self, methodname, args, kwds)

        monkeypatch.setattr(BaseProxy, "_callmethod", counting)
        assert store.get(("fp", 3)) == 3
        assert len(calls) == 1, calls
        calls.clear()
        store.put(("fp", 4), 4)  # full: evicts ("fp", 0)
        assert len(calls) == 1, calls
        monkeypatch.undo()
        assert store.get(("fp", 0)) is None
    finally:
        pool.close()


def test_closed_pool_store_answers_misses():
    """Teardown race: reads after the pool's manager shut down never raise."""
    pool = ShardPool(1, mode="process")
    store = pool.warm_store
    key = ("fp", 1)
    store.put(key, 1)
    assert store.get(key) == 1  # this thread now holds a connection
    pool.close()
    assert store.get(key) is None
    assert len(store) == 0
    assert store.invalidate("fp") == 0
    assert store.keys() == []
    store.put(key, 2)
    store.clear()
    # A thread that never connected fails at connect time instead.
    seen = []
    reader = threading.Thread(target=lambda: seen.append((store.get(key), len(store))))
    reader.start()
    reader.join(10)
    assert not reader.is_alive()
    assert seen == [(None, 0)]
