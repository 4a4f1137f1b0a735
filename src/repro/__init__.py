"""repro: a reproduction of CACTI-D (Thoziyoor et al., ISCA 2008).

A comprehensive memory modeling tool covering SRAM, logic-process DRAM
(LP-DRAM), and commodity DRAM (COMM-DRAM) technologies with consistent
models from L1 caches through main-memory DRAM chips, plus the multicore
timing simulator, workloads, and power accounting used for the paper's
stacked last-level-cache study.

Quick start::

    from repro import MemorySpec, solve
    from repro.tech import CellTech

    spec = MemorySpec(capacity_bytes=1 << 20, block_bytes=64,
                      associativity=8, node_nm=32.0,
                      cell_tech=CellTech.SRAM)
    solution = solve(spec)
    print(solution.summary())
"""

from repro._lazy import lazy_exports

#: Where each public name is defined; it is imported on first access.
_EXPORTS = {
    "AccessMode": "repro.core.config",
    "CactiD": "repro.core.cacti",
    "CellTech": "repro.tech.registry",
    "MainMemorySolution": "repro.core.cacti",
    "MainMemorySpec": "repro.array.mainmem",
    "MemorySpec": "repro.core.config",
    "NoFeasibleSolution": "repro.core.optimizer",
    "OptimizationTarget": "repro.core.config",
    "Solution": "repro.core.results",
    "SolveCache": "repro.core.solvecache",
    "SweepStats": "repro.core.optimizer",
    "solve": "repro.core.cacti",
    "solve_batch": "repro.core.cacti",
    "solve_main_memory": "repro.core.cacti",
    "technology": "repro.tech.nodes",
}

__version__ = "1.0.0"

__all__ = [
    "AccessMode",
    "CactiD",
    "CellTech",
    "MainMemorySolution",
    "MainMemorySpec",
    "MemorySpec",
    "NoFeasibleSolution",
    "OptimizationTarget",
    "Solution",
    "SolveCache",
    "SweepStats",
    "solve",
    "solve_batch",
    "solve_main_memory",
    "technology",
    "__version__",
]


__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
