"""Tests for the fine-tuning procedures."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import ConstantSpeedFunction, InfeasiblePartitionError, makespan
from repro.core.geometry import initial_bracket
from repro.core.refine import refine_greedy, refine_paper
from repro.core.vectorized import ObjectSet
from tests.conftest import make_pwl


def brute_force_best(n, sfs):
    """Exhaustive optimal makespan for tiny instances."""
    p = len(sfs)
    best = float("inf")
    for combo in itertools.product(range(n + 1), repeat=p - 1):
        if sum(combo) > n:
            continue
        alloc = list(combo) + [n - sum(combo)]
        if any(a > sf.max_size for a, sf in zip(alloc, sfs)):
            continue
        best = min(best, makespan(sfs, alloc))
    return best


class TestMakespan:
    def test_max_of_times(self, two_processors):
        alloc = [1000, 2000]
        expected = max(sf.time(a) for sf, a in zip(two_processors, alloc))
        assert makespan(two_processors, alloc) == pytest.approx(expected)


class TestRefineGreedy:
    def test_sums_to_n(self, heterogeneous_trio):
        n = 123_457
        region = initial_bracket(heterogeneous_trio, n)
        base = ObjectSet(heterogeneous_trio).allocations(region.upper)
        alloc = refine_greedy(n, heterogeneous_trio, base)
        assert alloc.sum() == n
        assert np.all(alloc >= 0)

    def test_optimal_small_constant(self):
        sfs = [ConstantSpeedFunction(2.0), ConstantSpeedFunction(5.0)]
        alloc = refine_greedy(7, sfs, [0.0, 0.0])
        assert makespan(sfs, alloc) == pytest.approx(brute_force_best(7, sfs))

    def test_optimal_small_functional(self):
        sfs = [
            ConstantSpeedFunction(3.0, max_size=20),
            ConstantSpeedFunction(1.0, max_size=20),
        ]
        n = 13
        alloc = refine_greedy(n, sfs, [0.0, 0.0])
        assert makespan(sfs, alloc) == pytest.approx(brute_force_best(n, sfs))

    def test_respects_bounds(self):
        sfs = [
            ConstantSpeedFunction(100.0, max_size=3),
            ConstantSpeedFunction(1.0, max_size=100),
        ]
        alloc = refine_greedy(10, sfs, [0.0, 0.0])
        assert alloc[0] <= 3
        assert alloc.sum() == 10

    def test_infeasible_bounds(self):
        sfs = [ConstantSpeedFunction(1.0, max_size=2)] * 2
        with pytest.raises(InfeasiblePartitionError):
            refine_greedy(10, sfs, [0.0, 0.0])

    def test_rejects_overfull_base(self, two_processors):
        with pytest.raises(InfeasiblePartitionError):
            refine_greedy(5, two_processors, [10.0, 10.0])

    def test_exact_base_untouched(self, two_processors):
        alloc = refine_greedy(30, two_processors, [10.0, 20.0])
        np.testing.assert_array_equal(alloc, [10, 20])


class TestRefinePaper:
    def test_sums_to_n(self, heterogeneous_trio):
        n = 200_001
        region = initial_bracket(heterogeneous_trio, n)
        ev = ObjectSet(heterogeneous_trio)
        low = ev.allocations(region.upper)
        high = ev.allocations(region.lower)
        alloc = refine_paper(n, heterogeneous_trio, low, high)
        assert alloc.sum() == n

    def test_falls_back_when_candidates_insufficient(self, two_processors):
        # High candidates cannot reach n: the greedy fallback must kick in.
        alloc = refine_paper(1000, two_processors, [1.0, 2.0], [2.0, 3.0])
        assert alloc.sum() == 1000

    def test_close_to_greedy_quality(self):
        sfs = [make_pwl(100.0), make_pwl(250.0), make_pwl(40.0)]
        n = 777_777
        region = initial_bracket(sfs, n)
        ev = ObjectSet(sfs)
        low = ev.allocations(region.upper)
        high = ev.allocations(region.lower)
        t_paper = makespan(sfs, refine_paper(n, sfs, low, high))
        t_greedy = makespan(sfs, refine_greedy(n, sfs, low))
        # The paper procedure selects from boundary candidates only; it may
        # be marginally worse but never by more than one element's worth.
        assert t_paper >= t_greedy * (1 - 1e-12)
        assert t_paper <= t_greedy * 1.01


class TestPackPathEquality:
    """The pack= fast path must be bit-identical to the scalar path."""

    def test_makespan_identical(self, heterogeneous_trio):
        from repro.core.vectorized import pack_speed_functions

        pack = pack_speed_functions(heterogeneous_trio)
        rng = np.random.default_rng(1)
        for _ in range(50):
            alloc = rng.integers(0, 2_000_000, size=3)
            assert makespan(heterogeneous_trio, alloc, pack=pack) == makespan(
                heterogeneous_trio, alloc
            )

    def test_refine_greedy_identical(self, heterogeneous_trio):
        from repro.core.vectorized import pack_speed_functions

        pack = pack_speed_functions(heterogeneous_trio)
        ev = ObjectSet(heterogeneous_trio)
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(10, 30_000))
            region = initial_bracket(heterogeneous_trio, n)
            base = ev.allocations(region.upper)
            a = refine_greedy(n, heterogeneous_trio, base)
            b = refine_greedy(n, heterogeneous_trio, base, pack=pack)
            np.testing.assert_array_equal(a, b)

    def test_batched_handout_matches_heap(self, heterogeneous_trio):
        from repro.core.refine import _handout_batched, _handout_heap, _next_heap

        pack = ObjectSet(heterogeneous_trio)
        rng = np.random.default_rng(4)
        for _ in range(20):
            base = rng.integers(0, 400_000, size=3)
            deficit = int(rng.integers(1, 7))
            n = int(base.sum()) + deficit
            bounds = pack.max_sizes
            heap = _next_heap(base.copy(), bounds, pack)
            want = _handout_heap(n, base.copy(), deficit, bounds, heap, pack)
            got = _handout_batched(n, base.copy(), deficit, bounds, pack)
            np.testing.assert_array_equal(got, want)

    def test_refine_paper_identical(self, heterogeneous_trio):
        from repro.core.vectorized import pack_speed_functions

        pack = pack_speed_functions(heterogeneous_trio)
        ev = ObjectSet(heterogeneous_trio)
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(10, 30_000))
            region = initial_bracket(heterogeneous_trio, n)
            low = ev.allocations(region.upper)
            high = ev.allocations(region.lower)
            a = refine_paper(n, heterogeneous_trio, low, high)
            b = refine_paper(n, heterogeneous_trio, low, high, pack=pack)
            np.testing.assert_array_equal(a, b)
