"""Snapshot of the public API surface.

These tests freeze ``repro.__all__`` and the signatures of the main entry
points.  A failure here means the public surface changed: if that is
intentional, update the snapshot *and* the docs (``docs/api.md``,
``docs/adaptive.md``) in the same change.
"""

from __future__ import annotations

import inspect

import repro
import repro.adapt as adapt

EXPECTED_ALL = [
    "ALGORITHMS",
    "SUPPORTED_OPTIONS",
    "AdaptivePolicy",
    "AnalyticSpeedFunction",
    "CacheStats",
    "CommAwareSpeedFunction",
    "HierarchicalResult",
    "ConfigurationError",
    "ConstantSpeedFunction",
    "ConvergenceError",
    "DriftDetector",
    "FaultScript",
    "Fleet",
    "InfeasiblePartitionError",
    "InvalidSpeedFunctionError",
    "MeasurementError",
    "MigrationPlan",
    "ModelBuildOptions",
    "Observation",
    "OnlineBandRefitter",
    "PartitionOptions",
    "PartitionResult",
    "PlanCache",
    "Planner",
    "PlannerStats",
    "PiecewiseLinearSpeedFunction",
    "Rectangle",
    "RectanglePartition",
    "Replanner",
    "ReproError",
    "RetryPolicy",
    "SpeedBand",
    "SpeedFunction",
    "SpeedSurface",
    "StepSpeedFunction",
    "WeightedPartitionResult",
    "__version__",
    "adapt",
    "group_speed_function",
    "makespan",
    "obs",
    "partition",
    "partition_2d_fixed",
    "partition_bisection",
    "partition_bisection_many",
    "partition_bounded",
    "partition_combined",
    "partition_constant",
    "partition_even",
    "partition_exact",
    "partition_hierarchical",
    "partition_modified",
    "partition_rectangles",
    "partition_weighted",
    "simulate_lu_adaptive",
    "simulate_striped_matmul_adaptive",
    "single_number_speeds",
    "validate_speed_functions",
]

EXPECTED_ADAPT_ALL = [
    "DISABLED",
    "NO_RETRY",
    "AdaptiveLUSimulation",
    "AdaptiveMMSimulation",
    "AdaptivePolicy",
    "CommFault",
    "DriftDetector",
    "DriftEvent",
    "Dropout",
    "FaultInjector",
    "FaultScript",
    "InjectedCommError",
    "LoadShift",
    "MigrationPlan",
    "Move",
    "Observation",
    "ReplanDecision",
    "Replanner",
    "RetryExhaustedError",
    "RetryPolicy",
    "apply_migration",
    "call_with_retry",
    "plan_migration",
    "scale_speed_function",
    "simulate_lu_adaptive",
    "simulate_striped_matmul_adaptive",
]

#: name -> exact signature string (as rendered by inspect.signature).
EXPECTED_SIGNATURES = {
    "partition": (
        "(n: 'int', speed_functions: 'Sequence[SpeedFunction]', *, "
        "algorithm: 'str' = 'combined', "
        "options: 'PartitionOptions | None' = None, "
        "validate: 'bool' = False, **kwargs: 'Any') -> 'PartitionResult'"
    ),
    "partition_bounded": (
        "(n: 'int', speed_functions: 'Sequence[SpeedFunction]', "
        "bounds: 'Sequence[float]', *, algorithm: 'str' = 'combined', "
        "options: 'PartitionOptions | None' = None, **kwargs) "
        "-> 'PartitionResult'"
    ),
    "simulate_striped_matmul_adaptive": (
        "(n: 'int', allocation: 'Sequence[int]', "
        "truth_speed_functions: 'Sequence[SpeedFunction]', *, "
        "model_speed_functions: 'Sequence[SpeedFunction] | None' = None, "
        "bands: 'Sequence[SpeedBand] | None' = None, "
        "policy: 'AdaptivePolicy | None' = None, "
        "script: 'FaultScript | None' = None, seed: 'int' = 0, "
        "load_mean: 'float' = 0.0, load_sigma: 'float' = 0.0, "
        "load_tau: 'float' = 5.0, dt: 'float | None' = None, "
        "comm: 'CommModel | None' = None, max_steps: 'int' = 10000000) "
        "-> 'AdaptiveMMSimulation'"
    ),
    "simulate_lu_adaptive": (
        "(dist: 'GroupBlockDistribution', "
        "truth_speed_functions: 'Sequence[SpeedFunction]', *, "
        "model_speed_functions: 'Sequence[SpeedFunction] | None' = None, "
        "bands: 'Sequence[SpeedBand] | None' = None, "
        "policy: 'AdaptivePolicy | None' = None, "
        "script: 'FaultScript | None' = None, seed: 'int' = 0, "
        "load_mean: 'float' = 0.0, load_sigma: 'float' = 0.0, "
        "load_tau: 'float' = 8.0, comm: 'CommModel | None' = None, "
        "keep_trace: 'bool' = True) -> 'AdaptiveLUSimulation'"
    ),
}


def test_top_level_all_is_frozen():
    assert list(repro.__all__) == EXPECTED_ALL


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_adapt_all_is_frozen():
    assert list(adapt.__all__) == EXPECTED_ADAPT_ALL


def test_every_adapt_export_resolves():
    for name in adapt.__all__:
        assert hasattr(adapt, name), name


def test_entry_point_signatures_are_frozen():
    for name, expected in EXPECTED_SIGNATURES.items():
        got = str(inspect.signature(getattr(repro, name)))
        assert got == expected, f"{name} signature changed:\n{got}"


def test_partition_options_fields_are_frozen():
    assert sorted(repro.PartitionOptions.field_names()) == [
        "bounds",
        "keep_trace",
        "max_iterations",
        "mode",
        "pack",
        "refine",
        "region",
        "validate",
    ]


def test_supported_options_registry_matches_algorithms():
    assert set(repro.SUPPORTED_OPTIONS) == set(repro.ALGORITHMS)
    for name, supported in repro.SUPPORTED_OPTIONS.items():
        assert supported <= repro.PartitionOptions.field_names(), name


def test_package_all_lists_are_unique_and_resolve():
    import importlib

    for module_name in (
        "repro",
        "repro.core",
        "repro.planner",
        "repro.serve",
        "repro.cluster",
        "repro.adapt",
    ):
        module = importlib.import_module(module_name)
        names = list(module.__all__)
        duplicates = sorted({n for n in names if names.count(n) > 1})
        assert not duplicates, f"{module_name}.__all__ repeats {duplicates}"
        for name in names:
            assert hasattr(module, name), f"{module_name}.{name} does not resolve"
