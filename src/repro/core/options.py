"""Typed options shared by every partitioner front door.

The partitioners historically accepted slightly different ``**kwargs``
surfaces, so a typo (``refine="greddy"``) or an option the algorithm does
not understand (``mode=`` for the modified algorithm) surfaced as a late
``TypeError`` deep inside the solver, or was silently swallowed by a
``**kwargs`` passthrough.  :class:`PartitionOptions` makes the shared
surface explicit:

* :func:`~repro.core.partition.partition` accepts ``options=`` (or the
  equivalent loose keywords) and forwards exactly the subset the selected
  algorithm supports;
* an option set to a non-default value that the algorithm cannot honour
  raises a :class:`~repro.exceptions.ConfigurationError` naming the
  algorithm — never a silent ignore;
* every ``partition_*`` entry point funnels unexpected keywords through
  :func:`reject_unknown_options`, so unsupported keywords fail uniformly
  across the whole family.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from ..exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .geometry import SlopeRegion
    from .vectorized import ObjectSet, PiecewiseLinearSet

__all__ = ["PartitionOptions", "reject_unknown_options"]


@dataclass(frozen=True)
class PartitionOptions:
    """The core options understood across the partitioner family.

    Attributes
    ----------
    mode:
        Bisection flavour: ``"tangent"`` (practical recommendation) or
        ``"angle"`` (the paper's formal definition).  Supported by the
        slope-bisection algorithms (``bisection``, ``combined``).
    refine:
        Fine-tuning procedure: ``"greedy"`` (optimal) or ``"paper"``
        (the literal figure-9 candidate sort).
    max_iterations:
        Safety cap on solver iterations; ``None`` keeps the algorithm's
        default.
    keep_trace:
        Record the per-step ``(slope, total)`` trajectory in the result.
    region:
        Warm-start :class:`~repro.core.geometry.SlopeRegion` (a converged
        bracket from a nearby problem), repaired before use.
    pack:
        Pre-built fleet evaluator for the same speed functions (see
        :func:`~repro.core.vectorized.pack_speed_functions`), shared across
        many queries.
    bounds:
        Per-processor element bounds ``b_i`` (the general problem
        statement); applied by truncating the speed graphs before the
        algorithm runs.  ``math.inf`` entries disable a bound.
    validate:
        Re-check the single-intersection invariant of every speed
        function before partitioning.
    """

    mode: str = "tangent"
    refine: str = "greedy"
    max_iterations: int | None = None
    keep_trace: bool = False
    region: "SlopeRegion | None" = None
    pack: "PiecewiseLinearSet | ObjectSet | None" = None
    bounds: Sequence[float] | None = None
    validate: bool = False

    #: Options consumed by :func:`~repro.core.partition.partition` itself
    #: (they apply uniformly, before algorithm dispatch).
    _FRONT_DOOR = frozenset({"bounds", "validate"})

    def replace(self, **changes: Any) -> "PartitionOptions":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def field_names(cls) -> frozenset[str]:
        """Names of every option field."""
        return frozenset(f.name for f in dataclasses.fields(cls))

    def non_default(self) -> dict[str, Any]:
        """The fields set away from their defaults, as a dict."""
        out: dict[str, Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            # Defaults are None or plain scalars; values may be arrays or
            # other rich objects, so equality is only asked of the scalars.
            if f.default is None:
                changed = value is not None
            else:
                changed = value != f.default
            if changed:
                out[f.name] = value
        return out

    def algorithm_kwargs(
        self, algorithm: str, supported: frozenset[str]
    ) -> dict[str, Any]:
        """Keyword arguments to forward to ``algorithm``.

        Only options the algorithm supports are forwarded (and only when
        set away from their defaults, so algorithm defaults stay in
        charge).  A non-default option outside ``supported`` raises a
        :class:`~repro.exceptions.ConfigurationError` naming the
        algorithm.
        """
        kwargs: dict[str, Any] = {}
        for name, value in self.non_default().items():
            if name in self._FRONT_DOOR:
                continue
            if name not in supported:
                raise ConfigurationError(
                    f"the {algorithm!r} algorithm does not support the "
                    f"option {name!r}"
                )
            kwargs[name] = value
        return kwargs


def reject_unknown_options(algorithm: str, extra: dict[str, Any]) -> None:
    """Uniform rejection of unsupported keywords across ``partition_*``.

    Every partitioner routes its ``**extra`` catch-all here, so passing an
    option the algorithm does not understand raises the same
    :class:`~repro.exceptions.ConfigurationError` (naming the algorithm)
    everywhere, instead of an inconsistent ``TypeError``.
    """
    if extra:
        names = ", ".join(sorted(extra))
        raise ConfigurationError(
            f"the {algorithm!r} algorithm does not support the option(s): {names}"
        )
