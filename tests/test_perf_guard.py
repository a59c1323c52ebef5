"""The perf-guard gate table's evaluator (``benchmarks/perf_guard.py``).

Every perf-guard gate is a :class:`Gate` row — label, measured value,
limit, failing comparison, message — and one evaluator prints the rows
and ORs their failures.  These tests pin the evaluator on hand-made
rows, without running any benchmark.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def perf_guard():
    with pytest.MonkeyPatch.context() as mp:
        # perf_guard imports its sibling bench modules by bare name.
        mp.syspath_prepend(str(BENCHMARKS))
        spec = importlib.util.spec_from_file_location(
            "perf_guard", BENCHMARKS / "perf_guard.py"
        )
        module = importlib.util.module_from_spec(spec)
        # dataclasses resolves the module by name while building Gate.
        mp.setitem(sys.modules, "perf_guard", module)
        spec.loader.exec_module(module)
    return module


def test_a_row_past_its_limit_fails(perf_guard, capsys):
    Gate = perf_guard.Gate
    assert perf_guard.evaluate_gates([
        Gate("overhead 1.00% (limit 2%)", 0.01, 0.02, ">", "overhead too high"),
        Gate("overhead 3.00% (limit 2%)", 0.03, 0.02, ">", "overhead too high"),
    ]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "perf-guard: overhead 1.00% (limit 2%)",
        "perf-guard: overhead 3.00% (limit 2%)",
    ]
    assert err.splitlines() == ["perf-guard: FAIL — overhead too high"]


@pytest.mark.parametrize(
    "op, fails", [(">", False), (">=", True), ("<", False)],
)
def test_a_row_at_its_limit_follows_its_operator(perf_guard, capsys, op, fails):
    gate = perf_guard.Gate("at the limit", 0.15, 0.15, op, "at the limit fails")
    assert perf_guard.evaluate_gates([gate]) == int(fails)
    assert bool(capsys.readouterr().err) is fails


def test_a_floor_row_fails_below_its_limit(perf_guard):
    Gate = perf_guard.Gate
    assert perf_guard.evaluate_gates([Gate("4.9x", 4.9, 5.0, "<", "slow")]) == 1
    assert perf_guard.evaluate_gates([Gate("5.1x", 5.1, 5.0, "<", "slow")]) == 0


def test_error_count_rows_print_only_when_they_fail(perf_guard, capsys):
    Gate = perf_guard.Gate
    assert perf_guard.evaluate_gates([Gate(None, 0, 0, ">", "saw 0 errors")]) == 0
    assert capsys.readouterr() == ("", "")
    assert perf_guard.evaluate_gates([Gate(None, 2, 0, ">", "saw 2 errors")]) == 1
    assert capsys.readouterr() == ("", "perf-guard: FAIL — saw 2 errors\n")


def test_an_all_pass_table_returns_zero(perf_guard, capsys):
    Gate = perf_guard.Gate
    assert perf_guard.evaluate_gates([
        Gate("ratio 1.2x (limit 3x)", 1.2, 3.0, ">", "ratio"),
        Gate("gap 4.0% (limit 10%)", 0.04, 0.10, ">=", "gap"),
        Gate("speedup 9.0x (floor 5x)", 9.0, 5.0, "<", "speedup"),
        Gate("report-only 12.0x", 12.0, None, "<", "never fails"),
        Gate(None, 0, 0, ">", "errors"),
    ]) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 4 and err == ""
