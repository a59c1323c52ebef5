"""Differential conformance: every solver path lands on the same line.

Seeded random fleets (piecewise-linear curves, sublinear growth curves,
speed-band samples, constant models — with and without memory bounds)
and adversarial problem sizes (``n = 0``, ``n = 1``, ``n < p``, exactly
at capacity, one past capacity, negative) are pushed through every way
the library can produce a plan:

* ``partition_bisection`` — tangent and angle bisection, greedy and
  paper refinement, and the compiled pack against the per-object
  :class:`~repro.core.vectorized.ObjectSet` evaluator;
* ``partition_modified`` / ``partition_combined`` / ``partition_exact``;
* ``partition_bounded`` (bisection vs exact over the truncated fleet);
* :class:`~repro.planner.Planner` — cold, cache-hit and batched
  (``plan_many``) paths, iteration counts included;
* an in-process :class:`~repro.serve.service.PlanningService`, so
  served plans are conformance-checked end to end.

Every reference result is additionally certificate-checked with
:mod:`repro.verify.certificate`.  Disagreements are classified:

``bug``
    A makespan mismatch, a missing/mismatched exception, a bit-level
    difference on a path documented to be bit-identical, or a failed
    certificate.  These fail the run.

``tolerance``
    A *documented* divergence: allocation ties (different allocations
    with makespans equal to 1e-9 relative), or the paper's refinement
    procedure landing within its documented 1% of the optimum.  These
    are reported but do not fail the run.

Every disagreement carries a one-line replay command embedding the seed
and case index, so any failure reproduces in isolation.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .. import obs
from ..core.bisection import partition_bisection, partition_bisection_many
from ..core.band import SpeedBand, constant_width_schedule, linear_width_schedule
from ..core.bounded import TruncatedSpeedFunction, partition_bounded
from ..core.comm_aware import CommAwareSpeedFunction
from ..core.partition import partition
from ..core.speed_function import (
    AnalyticSpeedFunction,
    ConstantSpeedFunction,
    PiecewiseLinearSpeedFunction,
    SpeedFunction,
)
from ..core.step_model import StepSpeedFunction
from ..core.vectorized import ObjectSet, PiecewiseLinearSet
from ..exceptions import InfeasiblePartitionError
from ..planner import Fleet, Planner
from .certificate import check_allocation

__all__ = [
    "Disagreement",
    "DifferentialReport",
    "generate_case",
    "run_differential",
    "replay_command",
]

#: Documented cross-algorithm makespan tolerance (the repo's own test
#: suite compares optimal makespans at this precision).
MAKESPAN_RTOL = 1e-9

#: The paper's figure-9 refinement selects from boundary candidates
#: only; it is documented feasible-but-possibly-suboptimal, with no
#: bound on the gap (the repo's 1% figure is empirical for the paper's
#: own testbed fleets, not a guarantee).  Its results are therefore
#: checked for feasibility and for never *beating* the optimum, and any
#: gap is reported as a documented tolerance carrying the ratio.


def replay_command(seed: int, case: int) -> str:
    """The one-liner that reruns exactly one differential case."""
    return f"python -m repro verify --seed {seed} --only-case {case}"


@dataclass(frozen=True)
class Disagreement:
    """One divergence between two solver paths."""

    seed: int
    case: int
    n: int
    kind: str
    severity: str  # "bug" | "tolerance"
    detail: str

    @property
    def replay(self) -> str:
        return replay_command(self.seed, self.case)

    def line(self) -> str:
        return (
            f"[{self.severity}] case {self.case} n={self.n} {self.kind}: "
            f"{self.detail}  (replay: {self.replay})"
        )


@dataclass
class DifferentialReport:
    """Outcome of one differential sweep."""

    seed: int
    cases: int = 0
    solves: int = 0
    comparisons: int = 0
    disagreements: list[Disagreement] = field(default_factory=list)

    @property
    def bugs(self) -> list[Disagreement]:
        return [d for d in self.disagreements if d.severity == "bug"]

    @property
    def tolerances(self) -> list[Disagreement]:
        return [d for d in self.disagreements if d.severity == "tolerance"]

    @property
    def ok(self) -> bool:
        return not self.bugs

    def summary(self) -> str:
        verdict = "ok" if self.ok else "FAILED"
        return (
            f"differential {verdict}: {self.cases} cases, {self.solves} solves, "
            f"{self.comparisons} comparisons, {len(self.bugs)} bugs, "
            f"{len(self.tolerances)} documented tolerances (seed {self.seed})"
        )


# ---------------------------------------------------------------------------
# Case generation
# ---------------------------------------------------------------------------


@dataclass
class Case:
    """One seeded scenario: a fleet plus the sizes to plan for it."""

    seed: int
    index: int
    speed_functions: list[SpeedFunction]
    sizes: list[int]
    bounds: list[float] | None

    @property
    def p(self) -> int:
        return len(self.speed_functions)

    def describe(self) -> str:
        kinds = ",".join(type(sf).__name__.replace("SpeedFunction", "")
                         for sf in self.speed_functions)
        return (
            f"case {self.index}: p={self.p} [{kinds}] sizes={self.sizes}"
            + (f" bounds={self.bounds}" if self.bounds else "")
        )


def _decreasing_pwl(rng: np.random.Generator) -> PiecewiseLinearSpeedFunction:
    """A random plateau-then-decline curve (the paper's figure-1 shape)."""
    knots = int(rng.integers(2, 8))
    xs = 10.0 ** rng.uniform(1.5, 3.0) * np.cumprod(rng.uniform(1.6, 6.0, knots))
    peak = 10.0 ** rng.uniform(1.0, 3.0)
    ratios = np.concatenate(([1.0], rng.uniform(0.35, 1.0, knots - 1)))
    ss = peak * np.cumprod(ratios)
    if rng.random() < 0.2:
        ss[-1] = 0.0  # the paper pins s(b) = 0 at the paging cliff
    return PiecewiseLinearSpeedFunction(xs, ss)


def _sublinear_pwl(rng: np.random.Generator) -> PiecewiseLinearSpeedFunction:
    """Speeds growing sublinearly (s = a + b*x keeps g decreasing)."""
    knots = int(rng.integers(2, 6))
    xs = 10.0 ** rng.uniform(1.5, 3.0) * np.cumprod(rng.uniform(1.6, 6.0, knots))
    a = 10.0 ** rng.uniform(1.0, 3.0)
    b = rng.uniform(0.05, 2.0) * a / xs[-1]
    return PiecewiseLinearSpeedFunction(xs, a + b * xs)


def _banded_pwl(rng: np.random.Generator) -> PiecewiseLinearSpeedFunction:
    """One run-time curve sampled from a speed band (possibly zero-width)."""
    mid = _decreasing_pwl(rng)
    width_kind = rng.random()
    if width_kind < 0.25:
        schedule: object = constant_width_schedule(0.0)  # degenerate band
    elif width_kind < 0.65:
        schedule = constant_width_schedule(float(rng.uniform(0.05, 0.4)))
    else:
        schedule = linear_width_schedule(
            float(rng.uniform(0.15, 0.5)),
            float(rng.uniform(0.0, 0.1)),
            1.0,
            mid.max_size,
        )
    return SpeedBand(mid, schedule).sample(rng)


def _step_model(rng: np.random.Generator) -> StepSpeedFunction:
    """A cache/memory/swap staircase (the paper's reference [19] shape)."""
    m = int(rng.integers(1, 5))
    bs = 10.0 ** rng.uniform(2.5, 3.5) * np.cumprod(rng.uniform(1.8, 8.0, m))
    peak = 10.0 ** rng.uniform(1.0, 3.0)
    ss = peak * np.cumprod(rng.uniform(0.30, 0.95, m))
    return StepSpeedFunction(bs, ss)


def _truncated_model(rng: np.random.Generator) -> TruncatedSpeedFunction:
    base = _step_model(rng) if rng.random() < 0.4 else _decreasing_pwl(rng)
    bound = float(base.max_size * rng.uniform(0.15, 1.2))
    return TruncatedSpeedFunction(base, max(bound, 1.0))


def _comm_aware_model(rng: np.random.Generator) -> CommAwareSpeedFunction:
    if rng.random() < 0.5:
        base: SpeedFunction = _decreasing_pwl(rng)
    else:
        base = ConstantSpeedFunction(
            10.0 ** rng.uniform(1.0, 3.0), max_size=10.0 ** rng.uniform(4.0, 6.5)
        )
    # Link costs sized so communication is noticeable but not dominant.
    scale = 1.0 / float(base.speed(min(1e3, base.max_size)))
    return CommAwareSpeedFunction(
        base,
        startup_s=float(rng.uniform(0.0, 50.0)) * scale,
        seconds_per_element=float(rng.uniform(0.0, 0.5)) * scale,
    )


def _tabulated_analytic(rng: np.random.Generator) -> PiecewiseLinearSpeedFunction:
    peak = 10.0 ** rng.uniform(1.0, 3.0)
    half = 10.0 ** rng.uniform(3.5, 5.5)
    cap = 10.0 ** rng.uniform(5.0, 6.5)

    def f(x):
        x = np.asarray(x, dtype=float)
        return peak / (1.0 + x / half)

    analytic = AnalyticSpeedFunction(f, max_size=cap)
    knots = int(rng.integers(6, 24))
    return analytic.tabulate(np.geomspace(10.0, cap, knots))


def _random_speed_function(rng: np.random.Generator) -> SpeedFunction:
    roll = rng.random()
    if roll < 0.25:
        return _decreasing_pwl(rng)
    if roll < 0.38:
        return _sublinear_pwl(rng)
    if roll < 0.55:
        return _banded_pwl(rng)
    if roll < 0.64:
        return _step_model(rng)
    if roll < 0.72:
        return _truncated_model(rng)
    if roll < 0.79:
        base = _step_model(rng) if rng.random() < 0.3 else _decreasing_pwl(rng)
        return base.scaled(float(10.0 ** rng.uniform(-0.7, 0.7)))
    if roll < 0.86:
        return _comm_aware_model(rng)
    if roll < 0.91:
        return _tabulated_analytic(rng)
    speed = 10.0 ** rng.uniform(1.0, 3.0)
    if rng.random() < 0.7:
        return ConstantSpeedFunction(speed, max_size=10.0 ** rng.uniform(4.0, 6.5))
    return ConstantSpeedFunction(speed)  # unbounded memory


def generate_case(seed: int, index: int) -> Case:
    """Deterministically generate differential case ``index`` of ``seed``."""
    rng = np.random.default_rng([seed, index])
    p = int(rng.integers(1, 9))
    sfs = [_random_speed_function(rng) for _ in range(p)]

    caps = [sf.max_size for sf in sfs]
    capacity = (
        int(sum(math.floor(c + 1e-9) for c in caps))
        if all(math.isfinite(c) for c in caps)
        else None
    )
    sizes = [int(rng.integers(0, 2))]  # n = 0 or n = 1
    if p > 1 and rng.random() < 0.5:
        sizes.append(p - 1)  # fewer elements than processors
    hi = capacity if capacity is not None else 10_000_000
    sizes.append(int(rng.integers(p + 1, max(p + 2, hi // 2 + 1))))
    if capacity is not None and rng.random() < 0.5:
        sizes.append(capacity)  # exactly full
        sizes.append(capacity + 1)  # one past: everyone must refuse
    if rng.random() < 0.15:
        sizes.append(-1)  # negative: everyone must refuse
    sizes = sorted(set(sizes))

    bounds: list[float] | None = None
    if rng.random() < 0.5:
        bounds = [
            float(rng.integers(1, int(min(c, 10**7)) + 1))
            if (math.isfinite(c) and rng.random() < 0.7)
            else math.inf
            for c in caps
        ]
    return Case(seed=seed, index=index, speed_functions=sfs, sizes=sizes,
                bounds=bounds)


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------

_Outcome = tuple  # ("ok", PartitionResult) | ("raise", str) | ("error", str)


def _attempt(fn: Callable[[], object]) -> _Outcome:
    try:
        return ("ok", fn())
    except InfeasiblePartitionError as exc:
        return ("raise", str(exc))
    except Exception as exc:  # noqa: BLE001 - classified as a bug by _compare
        return ("error", f"{type(exc).__name__}: {exc}")


class _CaseChecker:
    """Runs and classifies every comparison of one case."""

    def __init__(self, case: Case, report: DifferentialReport,
                 log: Callable[[str], None] | None):
        self.case = case
        self.report = report
        self.log = log
        self._violations = obs.get_registry().counter(
            "verify.violations", labels={"check": "differential"}
        )

    def note(self, n: int, kind: str, severity: str, detail: str) -> None:
        d = Disagreement(self.case.seed, self.case.index, n, kind, severity, detail)
        self.report.disagreements.append(d)
        if severity == "bug":
            self._violations.inc()
        if self.log:
            self.log(d.line())

    def compare(
        self,
        n: int,
        kind: str,
        ref: _Outcome,
        other: _Outcome,
        *,
        bit_identical: bool = False,
        same_iterations: bool = False,
        rtol: float = MAKESPAN_RTOL,
    ) -> None:
        """Classify ``other`` against the reference outcome.

        ``same_iterations`` also holds the path to the reference's
        bisection step count: it must run the cold solve's steps, not just
        land on its plan.
        """
        self.report.comparisons += 1
        if other[0] == "error":
            self.note(n, kind, "bug", f"unexpected exception: {other[1]}")
            return
        if ref[0] == "error":
            return  # already reported when the reference ran
        if ref[0] != other[0]:
            self.note(
                n, kind, "bug",
                f"reference {ref[0]}s but this path {other[0]}s ({other[1] if other[0] != 'ok' else ''})",
            )
            return
        if ref[0] == "raise":
            return  # both refused: agreement
        want, got = ref[1], other[1]
        same_alloc = np.array_equal(want.allocation, got.allocation)
        same_makespan = math.isclose(
            float(want.makespan), float(got.makespan), rel_tol=rtol, abs_tol=rtol
        )
        if same_iterations and got.iterations != want.iterations:
            self.note(
                n, kind, "bug",
                f"{got.iterations} bisection steps, the cold solve took "
                f"{want.iterations}",
            )
            return
        if bit_identical:
            if same_alloc and float(want.makespan) == float(got.makespan):
                return
            self.note(
                n, kind, "bug",
                "path documented bit-identical diverged: "
                f"makespan {float(got.makespan):.17g} vs {float(want.makespan):.17g}, "
                f"allocations {'equal' if same_alloc else 'differ'}",
            )
            return
        if not same_makespan:
            self.note(
                n, kind, "bug",
                f"makespan {float(got.makespan):.17g} != reference "
                f"{float(want.makespan):.17g} (rtol {rtol:g})",
            )
            return
        if not same_alloc:
            # Equal makespans with different allocations: a documented
            # tie between optimal plans, not a bug.
            self.note(
                n, kind, "tolerance",
                "allocation tie: different allocations share the optimal "
                f"makespan {float(want.makespan):.17g}",
            )


def run_differential(
    cases: int = 200,
    seed: int = 0,
    *,
    only_case: int | None = None,
    include_service: bool = True,
    log: Callable[[str], None] | None = None,
) -> DifferentialReport:
    """Run the differential sweep and classify every disagreement.

    With ``only_case`` set, only that case index is generated and run
    (the replay path) — the case is identical to the one the full sweep
    would produce, because each case derives from ``(seed, index)``
    alone.
    """
    report = DifferentialReport(seed=seed)
    cases_counter = obs.get_registry().counter(
        "verify.cases", labels={"layer": "differential"}
    )
    served: list[tuple[Case, list[tuple[int, _Outcome]]]] = []

    indices = [only_case] if only_case is not None else range(cases)
    for index in indices:
        case = generate_case(seed, index)
        if log and only_case is not None:
            # Per-case narration only when replaying a single case; bulk
            # sweeps log just the disagreements.
            log(case.describe())
        checker = _CaseChecker(case, report, log)
        refs = _run_case(case, checker, report)
        served.append((case, refs))
        report.cases += 1
        cases_counter.inc()

    if include_service and served:
        _check_served_plans(served, report, log)
    return report


def _run_case(
    case: Case, checker: _CaseChecker, report: DifferentialReport
) -> list[tuple[int, _Outcome]]:
    """All local solver paths of one case.  Returns the reference plans."""
    sfs = case.speed_functions
    fleet = Fleet(sfs, name=f"verify-{case.seed}-{case.index}")
    refs: list[tuple[int, _Outcome]] = []
    planner = Planner(fleet)

    for n in case.sizes:
        ref = _attempt(lambda: partition_bisection(n, sfs))
        report.solves += 1
        refs.append((n, ref))
        if ref[0] == "error":
            checker.note(n, "bisection", "bug", f"unexpected exception: {ref[1]}")
            continue
        if ref[0] == "ok":
            cert = check_allocation(
                ref[1].allocation, sfs, n=n, makespan=ref[1].makespan
            )
            for v in cert.violations:
                checker.note(n, f"certificate:{v.check}", "bug", v.message)

        # -- alternative algorithms over the same fleet -----------------
        alternates = {
            "bisection-angle": lambda: partition_bisection(n, sfs, mode="angle"),
            "modified": lambda: partition(n, sfs, algorithm="modified"),
            "combined": lambda: partition(n, sfs, algorithm="combined"),
            "exact": lambda: partition(n, sfs, algorithm="exact"),
        }
        for kind, fn in alternates.items():
            other = _attempt(fn)
            report.solves += 1
            checker.compare(n, kind, ref, other)

        # -- paper refinement: feasible, never better than optimal ------
        paper = _attempt(lambda: partition_bisection(n, sfs, refine="paper"))
        report.solves += 1
        report.comparisons += 1
        if paper[0] == "error":
            checker.note(n, "refine-paper", "bug", f"unexpected exception: {paper[1]}")
        elif paper[0] != ref[0]:
            checker.note(n, "refine-paper", "bug",
                         f"reference {ref[0]}s but paper refinement {paper[0]}s")
        elif paper[0] == "ok":
            got, want = float(paper[1].makespan), float(ref[1].makespan)
            feas = check_allocation(
                paper[1].allocation, sfs, n=n, makespan=got,
                check_optimality=False,
            )
            for v in feas.violations:
                checker.note(n, f"refine-paper:{v.check}", "bug", v.message)
            if got < want * (1.0 - MAKESPAN_RTOL):
                checker.note(n, "refine-paper", "bug",
                             f"paper refinement beat the optimum: {got:.17g} < {want:.17g}")
            elif not math.isclose(got, want, rel_tol=MAKESPAN_RTOL):
                checker.note(n, "refine-paper", "tolerance",
                             "paper refinement suboptimal by its documented "
                             f"boundary-candidate gap: {got / want:.4f}x optimal")

        # -- compiled pack vs the per-object evaluator ------------------
        if isinstance(fleet.pack, PiecewiseLinearSet):
            # Rerun the reference on the explicit per-object evaluator.
            # Packs whose rows all compile exactly (constants, steps,
            # truncations, scaled/tabulated models) must agree bit for
            # bit; comm-aware rows replace a per-object bisection with a
            # closed-form segment solve and are documented to the 1e-9
            # class.
            pure = _attempt(
                lambda: partition_bisection(n, sfs, pack=ObjectSet(sfs))
            )
            report.solves += 1
            checker.compare(
                n, "pure-oracle", ref, pure, bit_identical=fleet.pack.exact
            )

        # -- planner: cold then cache hit (bit-identical guarantees) ----
        cold = _attempt(lambda: planner.plan(n))
        report.solves += 1
        checker.compare(n, "planner-cold", ref, cold, bit_identical=True,
                        same_iterations=True)
        cached = _attempt(lambda: planner.plan(n))
        checker.compare(n, "planner-cached", ref, cached, bit_identical=True)

        # -- bounded: bisection vs exact over the truncated fleet -------
        if case.bounds is not None:
            b_bis = _attempt(
                lambda: partition_bounded(n, sfs, case.bounds, algorithm="bisection")
            )
            b_exact = _attempt(
                lambda: partition_bounded(n, sfs, case.bounds, algorithm="exact")
            )
            report.solves += 2
            if b_exact[0] == "error":
                checker.note(n, "bounded-exact", "bug",
                             f"unexpected exception: {b_exact[1]}")
            checker.compare(n, "bounded-bisection-vs-exact", b_exact, b_bis)
            if b_bis[0] == "ok":
                cert = check_allocation(
                    b_bis[1].allocation,
                    [sf for sf in _truncated(sfs, case.bounds)],
                    n=n,
                    makespan=b_bis[1].makespan,
                )
                for v in cert.violations:
                    checker.note(n, f"bounded-certificate:{v.check}", "bug", v.message)

    # -- batched sweeps over every feasible size ------------------------
    feasible = [n for n, ref in refs if ref[0] == "ok"]
    if feasible:
        batched = _attempt(lambda: Planner(fleet).plan_many(feasible))
        report.solves += len(feasible)
        if batched[0] != "ok":
            checker.note(feasible[0], "planner-batched", "bug",
                         f"plan_many failed: {batched[1]}")
        else:
            for n, got in zip(feasible, batched[1]):
                ref = next(r for m, r in refs if m == n)
                checker.compare(n, "planner-batched", ref, ("ok", got),
                                bit_identical=True, same_iterations=True)
        many = _attempt(lambda: partition_bisection_many(feasible, sfs))
        report.solves += len(feasible)
        if many[0] == "ok":
            for n, got in zip(feasible, many[1]):
                ref = next(r for m, r in refs if m == n)
                checker.compare(n, "bisection-many", ref, ("ok", got),
                                bit_identical=True, same_iterations=True)
        else:
            checker.note(feasible[0], "bisection-many", "bug",
                         f"partition_bisection_many failed: {many[1]}")
    return refs


def _truncated(sfs: Sequence[SpeedFunction], bounds: Sequence[float]):
    from ..core.bounded import TruncatedSpeedFunction

    for sf, b in zip(sfs, bounds):
        yield sf if math.isinf(b) else TruncatedSpeedFunction(sf, b)


def _check_served_plans(
    served: list[tuple[Case, list[tuple[int, _Outcome]]]],
    report: DifferentialReport,
    log: Callable[[str], None] | None,
) -> None:
    """Replay every case through an in-process planning service.

    Cases whose fleets contain models outside the wire format (truncated,
    scaled, comm-aware wrappers) are skipped here — the local solver
    paths already conformance-check them; the service only ever receives
    serialisable fleets.
    """
    from ..exceptions import ConfigurationError
    from ..io import speed_function_to_dict
    from ..serve.service import PlanningService, ServeConfig

    def _serialisable(case: Case) -> bool:
        try:
            for sf in case.speed_functions:
                speed_function_to_dict(sf)
        except ConfigurationError:
            return False
        return True

    served = [(case, refs) for case, refs in served if _serialisable(case)]
    if not served:
        return

    async def _run() -> None:
        service = PlanningService(ServeConfig(shards=2, queue_depth=256))
        await service.start()
        try:
            for case, refs in served:
                checker = _CaseChecker(case, report, log)
                info = await service.register_fleet(
                    case.speed_functions, name=f"case-{case.index}"
                )
                for n, ref in refs:
                    if n < 0:
                        continue  # negative sizes are rejected at the protocol layer
                    item = await service.plan(info["fingerprint"], n)
                    report.solves += 1
                    if item.get("ok"):
                        outcome: _Outcome = ("ok", _WireResult(item))
                    elif item.get("code") == "infeasible":
                        outcome = ("raise", item.get("message", ""))
                    else:
                        outcome = ("error", f"served error {item.get('code')}: "
                                            f"{item.get('message')}")
                    checker.compare(n, "served-plan", ref, outcome,
                                    bit_identical=True)
        finally:
            await service.drain()

    asyncio.run(_run())


class _WireResult:
    """Adapts a served plan item to the (allocation, makespan) duck type."""

    def __init__(self, item: dict):
        self.allocation = np.asarray(item["allocation"], dtype=np.int64)
        self.makespan = float(item["makespan"])
