"""Shared fixtures and speed-function factories for the test-suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro import (
    AnalyticSpeedFunction,
    ConstantSpeedFunction,
    PiecewiseLinearSpeedFunction,
)


#: Tests that fail on a leaked socket: an unclosed socket warns when it
#: is collected, and pytest reports a warning raised there as unraisable.
#: ``tests/verify`` stays out: a connection accepted just as
#: ``PlanServer.stop`` runs can still leak its transport.
_SOCKET_STRICT = ("serve", "cluster", "test_cli.py")


def pytest_collection_modifyitems(config, items):
    here = Path(__file__).parent
    strict = [here / name for name in _SOCKET_STRICT]
    for item in items:
        if any(item.path == p or p in item.path.parents for p in strict):
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings(
                "error::pytest.PytestUnraisableExceptionWarning"
            ))


def make_pwl(peak: float, scale: float = 1.0) -> PiecewiseLinearSpeedFunction:
    """A realistic decreasing piecewise-linear speed function.

    Plateau near ``peak``, gentle decline, paging collapse; domain scaled
    by ``scale``.
    """
    xs = np.array([1e3, 1e4, 1e5, 5e5, 1e6, 2e6]) * scale
    ss = np.array([1.00, 0.98, 0.92, 0.70, 0.20, 0.02]) * peak
    return PiecewiseLinearSpeedFunction(xs, ss)


def make_increasing_pwl(peak: float) -> PiecewiseLinearSpeedFunction:
    """A strictly increasing speed function (the s3 shape of figure 5)."""
    xs = np.array([1e3, 1e4, 1e5, 1e6])
    ss = np.array([0.30, 0.60, 0.85, 1.00]) * peak
    return PiecewiseLinearSpeedFunction(xs, ss)


def make_hump_pwl(peak: float) -> PiecewiseLinearSpeedFunction:
    """Increasing then decreasing (the s2 shape of figure 5)."""
    xs = np.array([1e3, 1e4, 1e5, 1e6, 2e6])
    ss = np.array([0.40, 0.80, 1.00, 0.35, 0.05]) * peak
    return PiecewiseLinearSpeedFunction(xs, ss)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20040426)  # IPDPS 2004 started 26 April


@pytest.fixture
def two_processors() -> list[PiecewiseLinearSpeedFunction]:
    return [make_pwl(100.0), make_pwl(300.0)]


@pytest.fixture
def heterogeneous_trio() -> list[PiecewiseLinearSpeedFunction]:
    """Three processors covering the three figure-5 shapes."""
    return [make_pwl(120.0), make_hump_pwl(250.0), make_increasing_pwl(80.0)]


@pytest.fixture
def analytic_processor() -> AnalyticSpeedFunction:
    def f(x):
        x = np.asarray(x, dtype=float)
        return 200.0 * (x / (x + 500.0)) / (1.0 + (x / 8e5) ** 2)

    return AnalyticSpeedFunction(f, max_size=5e6)


@pytest.fixture
def constant_pair() -> list[ConstantSpeedFunction]:
    return [ConstantSpeedFunction(100.0), ConstantSpeedFunction(300.0)]
