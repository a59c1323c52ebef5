"""Tests for Fleet: pack-once semantics and content fingerprinting."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AnalyticSpeedFunction,
    ConstantSpeedFunction,
    Fleet,
    InvalidSpeedFunctionError,
    PiecewiseLinearSpeedFunction,
)
from repro.core.vectorized import ObjectSet, PiecewiseLinearSet


def pwl(xs, ss):
    return PiecewiseLinearSpeedFunction(
        np.asarray(xs, dtype=float), np.asarray(ss, dtype=float)
    )


@pytest.fixture
def pwl_fleet():
    return Fleet(
        [
            pwl([1, 100, 1000], [50, 40, 10]),
            pwl([1, 500, 2000], [80, 60, 5]),
            pwl([1, 50], [20, 15]),
        ]
    )


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(InvalidSpeedFunctionError):
            Fleet([])

    def test_non_speed_function_rejected(self):
        with pytest.raises(InvalidSpeedFunctionError):
            Fleet([pwl([1, 10], [5, 4]), object()])

    def test_pwl_fleet_is_packed(self, pwl_fleet):
        assert isinstance(pwl_fleet.pack, PiecewiseLinearSet)
        assert pwl_fleet.p == 3
        assert len(pwl_fleet) == 3

    def test_mixed_fleet_is_packed(self):
        # Constants compile to two-knot rows, so a PWL+constant mix packs.
        fleet = Fleet([pwl([1, 10], [5, 4]), ConstantSpeedFunction(3.0, max_size=100)])
        assert isinstance(fleet.pack, PiecewiseLinearSet)

    def test_analytic_fleet_is_generic(self):
        # Raw analytic callables have no knot lowering and block the pack.
        fleet = Fleet(
            [
                pwl([1, 10], [5, 4]),
                AnalyticSpeedFunction(
                    lambda x: 10.0 / (1.0 + x / 100.0), max_size=1000
                ),
            ]
        )
        assert isinstance(fleet.pack, ObjectSet)

    def test_capacity_sums_max_sizes(self, pwl_fleet):
        assert pwl_fleet.capacity == 1000 + 2000 + 50

    def test_name_default_and_custom(self, pwl_fleet):
        assert pwl_fleet.name == "fleet-p3"
        assert Fleet([pwl([1, 10], [5, 4])], name="lab").name == "lab"
        assert "lab" in repr(Fleet([pwl([1, 10], [5, 4])], name="lab"))

    def test_precompiled_pack_is_adopted(self, pwl_fleet):
        # The online refitter swaps a few rows and hands the patched pack
        # to Fleet; the fingerprint must equal a from-scratch build.
        sfs = pwl_fleet.speed_functions
        pack = PiecewiseLinearSet(sfs, rows=[sf.as_knots() for sf in sfs])
        fleet = Fleet(sfs, pack=pack)
        assert fleet.pack is pack
        assert fleet.fingerprint == pwl_fleet.fingerprint

    def test_precompiled_pack_size_mismatch_rejected(self, pwl_fleet):
        with pytest.raises(InvalidSpeedFunctionError):
            Fleet(pwl_fleet.speed_functions[:2], pack=pwl_fleet.pack)


class TestFingerprint:
    def test_equal_content_equal_fingerprint(self):
        a = Fleet([pwl([1, 100], [9, 3]), pwl([2, 50], [7, 4])])
        b = Fleet([pwl([1, 100], [9, 3]), pwl([2, 50], [7, 4])])
        assert a.fingerprint == b.fingerprint

    def test_knot_change_changes_fingerprint(self):
        a = Fleet([pwl([1, 100], [9, 3])])
        b = Fleet([pwl([1, 100], [9, 3.0000001])])
        assert a.fingerprint != b.fingerprint

    def test_order_matters(self):
        f1, f2 = pwl([1, 100], [9, 3]), pwl([2, 50], [7, 4])
        assert Fleet([f1, f2]).fingerprint != Fleet([f2, f1]).fingerprint

    def test_generic_fleet_fingerprint_stable_for_describable(self):
        mk = lambda: [
            pwl([1, 100], [9, 3]),
            ConstantSpeedFunction(3.0, max_size=100),
        ]
        assert Fleet(mk()).fingerprint == Fleet(mk()).fingerprint

    def test_opaque_members_never_share(self):
        mk = lambda: [
            ConstantSpeedFunction(3.0, max_size=100),
            AnalyticSpeedFunction(lambda x: 10.0 / (1.0 + x / 100.0), max_size=1000),
        ]
        # Distinct opaque objects -> distinct fingerprints (no false sharing).
        assert Fleet(mk()).fingerprint != Fleet(mk()).fingerprint


class TestEvaluation:
    def test_packed_allocations_match_scalar(self, pwl_fleet):
        slope = 0.05
        expected = np.array(
            [sf.intersect_ray(slope) for sf in pwl_fleet.speed_functions]
        )
        np.testing.assert_array_equal(pwl_fleet.allocations(slope), expected)
        assert pwl_fleet.total(slope) == pytest.approx(expected.sum())

    def test_generic_allocator_path(self):
        fleet = Fleet(
            [pwl([1, 10], [5, 4]), ConstantSpeedFunction(3.0, max_size=100)]
        )
        slope = 0.1
        expected = np.array(
            [sf.intersect_ray(slope) for sf in fleet.speed_functions]
        )
        np.testing.assert_array_equal(fleet.allocations(slope), expected)
