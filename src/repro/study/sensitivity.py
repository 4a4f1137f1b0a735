"""Sensitivity analysis: how solved metrics respond to inputs.

A modeling tool earns trust by exposing its derivatives: which inputs
move which outputs, and by how much.  This module sweeps a one-dimensional
input of a :class:`~repro.core.config.MemorySpec` (capacity,
associativity, block size, technology node, banks) or an optimizer knob,
re-solves at each point, and reports the resulting metric trajectories
plus local elasticities (d log(metric) / d log(input)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.array.organization import EvalCache
from repro.core import parallel
from repro.core.cacti import _solve_map
from repro.core.config import MemorySpec, OptimizationTarget
from repro.core.optimizer import NoFeasibleSolution
from repro.core.resilience import ResiliencePolicy, TaskFailure
from repro.core.results import Solution
from repro.core.solvecache import SolveCache
from repro.obs import Obs, maybe_span

#: Metrics extracted from each solved point.
METRICS: dict[str, Callable[[Solution], float]] = {
    "access_time": lambda s: s.access_time,
    "random_cycle": lambda s: s.random_cycle_time,
    "e_read": lambda s: s.e_read,
    "p_leakage": lambda s: s.p_leakage,
    "p_refresh": lambda s: s.p_refresh,
    "area": lambda s: s.area,
    "area_efficiency": lambda s: s.area_efficiency,
}

#: Spec fields sweepable by name.  ``cell_tech`` is categorical: values
#: are technology registry names (any registered technology), points
#: carry the name as their value, and elasticities skip it.
SWEEPABLE = (
    "capacity_bytes",
    "block_bytes",
    "associativity",
    "nbanks",
    "node_nm",
    "cell_tech",
)


def _point_value(value) -> float | str:
    """Numeric sweep values as floats; categorical ones as strings."""
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    return str(value)


@dataclass(frozen=True)
class SweepPoint:
    """One solved point of a sweep.

    ``value`` is a float for numeric parameters and a string for
    categorical ones (e.g. a ``cell_tech`` registry name).
    """

    value: float | str
    solution: Solution | None  #: None if infeasible at this value

    def metric(self, name: str) -> float | None:
        if self.solution is None:
            return None
        return METRICS[name](self.solution)


@dataclass(frozen=True)
class SensitivityResult:
    """A full one-dimensional sweep.

    Under a skip/retry :class:`~repro.core.resilience.ResiliencePolicy`
    the sweep is allowed to finish partially: points whose tasks failed
    terminally come back with ``solution=None`` and the corresponding
    :class:`~repro.core.resilience.TaskFailure` records in ``failed``.
    """

    parameter: str
    points: tuple[SweepPoint, ...]
    failed: tuple[TaskFailure, ...] = ()

    def series(self, metric: str) -> list[tuple[float, float]]:
        """(input value, metric value) pairs for the feasible points."""
        return [
            (p.value, p.metric(metric))
            for p in self.points
            if p.solution is not None
        ]

    def elasticity(self, metric: str) -> float | None:
        """Log-log slope of the metric over the sweep (least squares).

        An elasticity of 1.0 means the metric scales proportionally with
        the input; 0.5 like its square root; 0 means insensitive.
        Returns None with fewer than two feasible points, and for
        categorical sweeps (e.g. ``cell_tech``), whose string-valued
        points have no log-log slope.
        """
        pairs = [
            (v, m)
            for v, m in self.series(metric)
            if isinstance(v, float) and v > 0 and m > 0
        ]
        if len(pairs) < 2:
            return None
        xs = [math.log(v) for v, _ in pairs]
        ys = [math.log(m) for _, m in pairs]
        n = len(xs)
        mean_x, mean_y = sum(xs) / n, sum(ys) / n
        sxx = sum((x - mean_x) ** 2 for x in xs)
        if sxx == 0:
            return None
        sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        return sxy / sxx

    def report(self) -> str:
        lines = [f"sensitivity sweep over {self.parameter}"]
        for metric in METRICS:
            e = self.elasticity(metric)
            if e is None:
                continue
            lines.append(f"  {metric:<16} elasticity {e:+.2f}")
        return "\n".join(lines)


def sweep(
    base: MemorySpec,
    parameter: str,
    values: Sequence,
    target: OptimizationTarget | None = None,
    *,
    eval_cache: EvalCache | None = None,
    solve_cache: SolveCache | None = None,
    jobs: int | str = 1,
    obs: Obs | None = None,
    resilience: ResiliencePolicy | None = None,
) -> SensitivityResult:
    """Re-solve ``base`` across ``values`` of ``parameter``.

    The points run through the fan-out engine exactly like a
    :func:`~repro.core.cacti.solve_batch` (stage ``sweep.point``), so
    in-process sweeps (``jobs`` resolving to 1) share one
    ``eval_cache`` (created when omitted) -- neighboring points reuse
    subarray designs, visible in ``obs``'s ``eval_cache.subarray.*``
    counters -- and hold ``solve_cache`` open for one deferred flush;
    ``jobs > 1`` solves points concurrently in worker processes (point
    order is preserved, numbers unchanged).  ``obs`` traces the sweep
    with one ``sweep.point`` span per solved point and counts what the
    engine did.  An infeasible point -- no feasible organization, or a
    value that makes the spec invalid -- comes back with
    ``solution=None``.

    ``resilience`` (default: fail fast) makes the sweep fault tolerant:
    failed points are retried/skipped/raised per the policy, a journal
    checkpoints each completed point (resuming re-solves only the
    unfinished ones), and terminal failures land in the result's
    ``failed`` list with ``solution=None`` at the corresponding point.
    """
    if parameter not in SWEEPABLE:
        raise ValueError(
            f"cannot sweep {parameter!r}; choose one of {SWEEPABLE}"
        )
    # An invalid spec at some value (e.g. a capacity that does not
    # divide into sets) is an infeasible point, never solved.
    specs: list[MemorySpec | None] = []
    for value in values:
        try:
            specs.append(replace(base, **{parameter: value}))
        except ValueError:
            specs.append(None)
    live = [s for s in specs if s is not None]
    jobs = parallel.effective_jobs(jobs, len(live))
    with maybe_span(
        obs, "sweep", parameter=parameter, points=len(specs), jobs=jobs
    ):
        outcome = _solve_map(
            live,
            [target] * len(live),
            stage="sweep.point",
            tolerate_infeasible=True,
            eval_cache=eval_cache,
            solve_cache=solve_cache,
            jobs=jobs,
            obs=obs,
            resilience=resilience,
        )
    solved = iter(outcome)
    solutions = [
        next(solved) if spec is not None else None for spec in specs
    ]
    if obs is not None:
        obs.inc("sensitivity.points", len(specs))
        obs.inc(
            "sensitivity.feasible_points",
            sum(s is not None for s in solutions),
        )
    points = tuple(
        SweepPoint(value=_point_value(value), solution=solution)
        for value, solution in zip(values, solutions)
    )
    if not any(p.solution is not None for p in points):
        raise NoFeasibleSolution(
            f"no feasible point in the {parameter} sweep"
        )
    return SensitivityResult(
        parameter=parameter, points=points, failed=outcome.failed
    )


def capacity_sweep(
    base: MemorySpec,
    factors: Sequence[int] = (1, 2, 4, 8, 16),
    **kwargs,
) -> SensitivityResult:
    """Convenience: sweep capacity by powers of two from the base.

    Keyword arguments (``jobs``, ``eval_cache``, ``solve_cache``,
    ``obs``, ``target``) pass through to :func:`sweep`.
    """
    return sweep(
        base,
        "capacity_bytes",
        [base.capacity_bytes * f for f in factors],
        **kwargs,
    )
