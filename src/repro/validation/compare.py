"""Validation harness: run CACTI-D against the published targets.

Produces the paper's Table 2 (DRAM validation with per-metric errors) and
Figure 1 (SRAM cache solution bubbles vs the published design) from the
live model, so the benchmarks and EXPERIMENTS.md report measured, not
hard-coded, numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.array.mainmem import MainMemorySpec
from repro.core.cacti import MainMemorySolution, solve_main_memory
from repro.core.cacti import solve
from repro.core.config import MemorySpec, OptimizationTarget
from repro.core.results import Solution
from repro.tech.cells import CellTech
from repro.validation.targets import DDR3_TARGET, Ddr3Target, SramCacheTarget


def percent_error(model: float, actual: float) -> float:
    """Signed fractional error of the model against the actual value.

    A zero actual has no well-defined fractional error: an exactly-met
    zero target reports 0.0, and anything else raises :class:`ValueError`
    (not a bare ``ZeroDivisionError``) so the CLI can exit cleanly with
    the offending values instead of a traceback.
    """
    if actual == 0:
        if model == 0:
            return 0.0
        raise ValueError(
            f"percent error is undefined against a zero target "
            f"(model value {model!r})"
        )
    return (model - actual) / actual


@dataclass(frozen=True)
class Ddr3Validation:
    """Model-vs-actual comparison for the Micron DDR3 target."""

    solution: MainMemorySolution
    errors: dict[str, float]

    @property
    def mean_abs_error(self) -> float:
        return sum(abs(e) for e in self.errors.values()) / len(self.errors)

    def report(self) -> str:
        target = DDR3_TARGET
        rows = [
            ("Area efficiency", self.solution.area_efficiency,
             target.area_efficiency, "", 1.0),
            ("tRCD (ns)", self.solution.timing.t_rcd, target.t_rcd, "ns", 1e9),
            ("CAS latency (ns)", self.solution.timing.t_cas, target.t_cas,
             "ns", 1e9),
            ("tRC (ns)", self.solution.timing.t_rc, target.t_rc, "ns", 1e9),
            ("ACTIVATE energy (nJ)", self.solution.energies.e_activate,
             target.e_activate, "nJ", 1e9),
            ("READ energy (nJ)", self.solution.energies.e_read,
             target.e_read, "nJ", 1e9),
            ("WRITE energy (nJ)", self.solution.energies.e_write,
             target.e_write, "nJ", 1e9),
            ("Refresh power (mW)", self.solution.energies.p_refresh,
             target.p_refresh, "mW", 1e3),
        ]
        lines = [
            f"{'Metric':<24}{'Actual':>10}{'Model':>10}{'Error':>9}"
            f"{'Paper err':>11}"
        ]
        keys = list(self.errors)
        for (label, model, actual, _unit, scale), key in zip(rows, keys):
            paper = Ddr3Target.PAPER_ERRORS[key]
            lines.append(
                f"{label:<24}{actual * scale:>10.2f}{model * scale:>10.2f}"
                f"{self.errors[key] * 100:>8.1f}%{paper * 100:>10.1f}%"
            )
        lines.append(f"mean |error|: {self.mean_abs_error * 100:.1f}%")
        return "\n".join(lines)


def validate_ddr3(
    target: Ddr3Target | None = None,
    *,
    solve_cache=None,
    obs=None,
) -> Ddr3Validation:
    """Solve the Micron part and compute per-metric errors (Table 2).

    ``target`` defaults to the module's ``DDR3_TARGET`` resolved at call
    time (not bound at definition).  The keyword knobs (persistent
    ``solve_cache``, ``obs`` tracer and metrics) pass
    straight through to :func:`~repro.core.cacti.solve_main_memory`, so
    the validation run is observable and cacheable exactly like any
    other solve.
    """
    if target is None:
        target = DDR3_TARGET
    spec = MainMemorySpec(
        capacity_bits=target.capacity_bits,
        nbanks=target.nbanks,
        data_pins=target.data_pins,
        burst_length=target.burst_length,
        page_bits=target.page_bits,
    )
    solution = solve_main_memory(
        spec,
        node_nm=target.node_nm,
        solve_cache=solve_cache,
        obs=obs,
    )
    errors = {
        "area_efficiency": percent_error(
            solution.area_efficiency, target.area_efficiency
        ),
        "t_rcd": percent_error(solution.timing.t_rcd, target.t_rcd),
        "t_cas": percent_error(solution.timing.t_cas, target.t_cas),
        "t_rc": percent_error(solution.timing.t_rc, target.t_rc),
        "e_activate": percent_error(
            solution.energies.e_activate, target.e_activate
        ),
        "e_read": percent_error(solution.energies.e_read, target.e_read),
        "e_write": percent_error(solution.energies.e_write, target.e_write),
        "p_refresh": percent_error(
            solution.energies.p_refresh, target.p_refresh
        ),
    }
    return Ddr3Validation(solution=solution, errors=errors)


@dataclass(frozen=True)
class SramBubble:
    """One point of the Figure 1 bubble chart."""

    label: str
    access_time: float  #: s
    dynamic_power: float  #: W at activity factor 1.0
    area: float  #: m^2
    leakage_power: float


@dataclass(frozen=True)
class SramValidation:
    """Figure 1 reproduction for one published SRAM cache."""

    target: SramCacheTarget
    target_bubbles: tuple[SramBubble, ...]
    solutions: tuple[SramBubble, ...]
    best_access_solution: Solution

    def mean_abs_error(self) -> float:
        """Mean |error| of the best-access-time solution across access
        time, area, and power -- the paper quotes ~20 % for this metric."""
        best = min(self.solutions, key=lambda b: b.access_time)
        t = self.target
        errors = [
            abs(percent_error(best.access_time, t.access_time)),
            abs(percent_error(best.area, t.area)),
            abs(
                percent_error(
                    best.dynamic_power + best.leakage_power,
                    min(t.dynamic_power) + t.leakage_power,
                )
            ),
        ]
        return sum(errors) / len(errors)


def validate_sram_cache(
    target: SramCacheTarget,
    constraint_sweep: tuple[OptimizationTarget, ...] | None = None,
) -> SramValidation:
    """Reproduce a Figure 1 bubble chart for one published SRAM cache.

    Sweeps the optimizer constraints within reasonable bounds (as the
    paper does) and reports each resulting solution as a bubble.
    """
    if constraint_sweep is None:
        constraint_sweep = tuple(
            OptimizationTarget(
                max_area_fraction=a,
                max_acctime_fraction=t,
                max_repeater_delay_penalty=r,
            )
            for a in (0.1, 0.3, 0.6)
            for t in (0.05, 0.3)
            for r in (0.0, 0.4)
        )
    spec = MemorySpec(
        capacity_bytes=target.capacity_bytes,
        block_bytes=target.block_bytes,
        associativity=target.associativity,
        nbanks=1,
        node_nm=target.node_nm,
        cell_tech=CellTech.SRAM,
        sleep_transistors=True,
    )
    bubbles = []
    best_solution: Solution | None = None
    # Activity factor 1.0: one access per cache clock.  Large shared L3s
    # run at half the core clock (the Xeon 7100's L3 pipeline), so that is
    # the reference frequency for the dynamic-power bubbles.
    cache_clock = target.clock_hz / 2.0
    for opt in constraint_sweep:
        solution = solve(spec, opt)
        dyn = solution.e_read * cache_clock
        bubble = SramBubble(
            label=f"a={opt.max_area_fraction} t={opt.max_acctime_fraction} "
            f"r={opt.max_repeater_delay_penalty}",
            access_time=solution.access_time,
            dynamic_power=dyn,
            area=solution.area,
            leakage_power=solution.p_leakage,
        )
        bubbles.append(bubble)
        if (
            best_solution is None
            or solution.access_time < best_solution.access_time
        ):
            best_solution = solution

    targets = tuple(
        SramBubble(
            label=f"{target.name} (quoted dyn #{i + 1})",
            access_time=target.access_time,
            dynamic_power=p,
            area=target.area,
            leakage_power=target.leakage_power,
        )
        for i, p in enumerate(target.dynamic_power)
    )
    assert best_solution is not None
    return SramValidation(
        target=target,
        target_bubbles=targets,
        solutions=tuple(bubbles),
        best_access_solution=best_solution,
    )
