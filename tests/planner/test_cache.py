"""Tests for the thread-safe LRU plan cache."""

from __future__ import annotations

import gc
import threading

import numpy as np
import pytest

from repro import PlanCache, partition_bisection


class TestBasics:
    def test_get_miss_then_hit(self):
        c = PlanCache(4)
        assert c.get("k") is None
        c.put("k", 42)
        assert c.get("k") == 42
        s = c.stats()
        assert (s.hits, s.misses, s.size) == (1, 1, 1)

    def test_put_refreshes_value(self):
        c = PlanCache(4)
        c.put("k", 1)
        c.put("k", 2)
        assert c.get("k") == 2
        assert len(c) == 1

    def test_contains_and_clear(self):
        c = PlanCache(4)
        c.put("k", 1)
        assert "k" in c and "z" not in c
        c.get("k")
        c.clear()
        assert len(c) == 0
        # clear() preserves the counters
        assert c.stats().hits == 1

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            PlanCache(0)


class TestCompactPlans:
    def test_a_dropped_plan_comes_back_equal_from_the_narrow_copy(self, heterogeneous_trio):
        n = 1_000_000
        cold = partition_bisection(n, heterogeneous_trio)
        c = PlanCache(4)
        c.put("k", partition_bisection(n, heterogeneous_trio))
        gc.collect()
        (stored,) = c._data.values()
        assert stored._rows.place.size == 3  # the largest entry needs 3 bytes, not 8
        rebuilt = c.get("k")
        assert rebuilt.allocation.dtype == np.int64
        np.testing.assert_array_equal(rebuilt.allocation, cold.allocation)
        assert (rebuilt.makespan, rebuilt.iterations, rebuilt.region) == (
            cold.makespan, cold.iterations, cold.region
        )
        # A plan asked for again stays whole: every later hit is that object.
        del rebuilt
        assert c.get("k") is c.get("k")
        (stored,) = c._data.values()
        assert stored.allocation.dtype == np.int64

    def test_values_that_are_not_plans_are_kept_as_given(self):
        c = PlanCache(4)
        value = {"allocation": [1, 2]}
        c.put("k", value)
        assert c.get("k") is value


class TestLRU:
    def test_eviction_order_is_least_recently_used(self):
        c = PlanCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")          # refresh a -> b is now LRU
        c.put("c", 3)       # evicts b
        assert c.get("b") is None
        assert c.get("a") == 1 and c.get("c") == 3
        assert c.stats().evictions == 1

    def test_put_refresh_counts_no_eviction(self):
        c = PlanCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("a", 10)      # refresh, not insert
        assert c.stats().evictions == 0
        assert len(c) == 2

    def test_hit_rate(self):
        c = PlanCache(2)
        assert c.stats().hit_rate == 0.0
        c.put("a", 1)
        c.get("a")
        c.get("a")
        c.get("missing")
        assert c.stats().hit_rate == pytest.approx(2 / 3)
        assert "hit_rate" in str(c.stats())


class TestInvalidation:
    def test_invalidate_matches_bare_and_tuple_keys(self):
        c = PlanCache(8)
        c.put("fp-a", 0)
        c.put(("fp-a", 100, "bisection"), 1)
        c.put(("fp-a", 200, "bisection"), 2)
        c.put(("fp-b", 100, "bisection"), 3)
        assert c.invalidate("fp-a") == 3
        assert len(c) == 1
        assert c.get(("fp-b", 100, "bisection")) == 3

    def test_invalidate_is_exact(self):
        """Untouched fingerprints keep entries *and* their LRU position."""
        c = PlanCache(3)
        c.put(("keep-old", 1), "old")
        c.put(("drop", 1), "x")
        c.put(("keep-new", 1), "new")
        assert c.invalidate("drop") == 1
        # Two slots left; filling one more must evict keep-old (still the
        # least recently used), not keep-new.
        c.put(("fresh", 1), "y")
        c.put(("fresh2", 1), "z")
        assert c.get(("keep-old", 1)) is None
        assert c.get(("keep-new", 1)) == "new"

    def test_invalidate_missing_fingerprint_is_noop(self):
        c = PlanCache(4)
        c.put(("fp", 1), 1)
        assert c.invalidate("other") == 0
        assert len(c) == 1
        assert c.stats().invalidations == 0

    def test_invalidate_where_predicate(self):
        c = PlanCache(8)
        for n in (1, 2, 3, 4):
            c.put(("fp", n), n)
        assert c.invalidate_where(lambda key: key[1] % 2 == 0) == 2
        assert c.get(("fp", 1)) == 1 and c.get(("fp", 3)) == 3
        assert c.get(("fp", 2)) is None

    def test_invalidations_counted_in_stats(self):
        c = PlanCache(8)
        c.put(("fp", 1), 1)
        c.put(("fp", 2), 2)
        c.invalidate("fp")
        s = c.stats()
        assert s.invalidations == 2
        assert "invalidations" in str(s)


class TestThreadSafety:
    def test_concurrent_mixed_operations(self):
        c = PlanCache(64)
        errors = []

        def worker(seed: int) -> None:
            try:
                for i in range(500):
                    k = (seed * 31 + i) % 100
                    if i % 3 == 0:
                        c.put(k, k)
                    else:
                        v = c.get(k)
                        assert v is None or v == k
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        s = c.stats()
        assert len(c) <= 64
        assert s.hits + s.misses > 0
