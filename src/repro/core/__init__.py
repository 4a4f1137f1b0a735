"""CACTI-D core: input specs, optimizer, and the public solve API."""

from repro._lazy import lazy_exports

#: Where each public name is defined; it is imported on first access.
_EXPORTS = {
    "AccessMode": "repro.core.config",
    "CactiD": "repro.core.cacti",
    "DENSITY_OPTIMIZED": "repro.core.config",
    "ENERGY_DELAY_OPTIMIZED": "repro.core.config",
    "MainMemorySolution": "repro.core.cacti",
    "MemorySpec": "repro.core.config",
    "NoFeasibleSolution": "repro.core.optimizer",
    "OptimizationTarget": "repro.core.config",
    "Solution": "repro.core.results",
    "SolveCache": "repro.core.solvecache",
    "SweepStats": "repro.core.optimizer",
    "data_array_spec": "repro.core.cacti",
    "feasible_designs": "repro.core.optimizer",
    "filter_constraints": "repro.core.optimizer",
    "optimize": "repro.core.optimizer",
    "pareto_solutions": "repro.core.optimizer",
    "rank": "repro.core.optimizer",
    "solve": "repro.core.cacti",
    "solve_batch": "repro.core.cacti",
    "solve_main_memory": "repro.core.cacti",
    "tag_array_spec": "repro.core.cacti",
}

__all__ = [
    "AccessMode",
    "CactiD",
    "DENSITY_OPTIMIZED",
    "ENERGY_DELAY_OPTIMIZED",
    "MainMemorySolution",
    "MemorySpec",
    "NoFeasibleSolution",
    "OptimizationTarget",
    "Solution",
    "SolveCache",
    "SweepStats",
    "data_array_spec",
    "feasible_designs",
    "filter_constraints",
    "optimize",
    "pareto_solutions",
    "rank",
    "solve",
    "solve_batch",
    "solve_main_memory",
    "tag_array_spec",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
