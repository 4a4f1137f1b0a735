"""Vectorized-kernel speedup over the scalar per-candidate sweep.

Solves the BENCH_parallel spec batch twice on a single core -- once
through ``solve_batch`` (the numpy survivor-batch kernels) and once
through the scalar reference, ``rank(filter_constraints(
feasible_designs(...)))`` per data and tag array, which builds every
candidate as a full object -- and records the wall-clock pair and
speedup into ``BENCH_kernels.json`` at the repo root.  Also asserts the
kernels' correctness contract (bit-identical solutions to the scalar
path) and a conservative >= 2x single-core speedup floor that holds
even on noisy shared CI runners;
the real target, an order of magnitude, is what the recorded number
documents on quiet hardware.
"""

import json
import os
import time

from repro.array.organization import EvalCache
from repro.core.cacti import data_array_spec, solve_batch, tag_array_spec
from repro.core.config import MemorySpec, OptimizationTarget
from repro.core.optimizer import (
    SweepStats,
    feasible_designs,
    filter_constraints,
    rank,
)
from repro.obs import Obs
from repro.tech.cells import CellTech
from repro.tech.nodes import technology

BENCH_FILE = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_kernels.json"
)

#: The same design-space-exploration-shaped batch BENCH_parallel times:
#: LLC candidates across capacities and cell technologies.
BATCH = [
    MemorySpec(capacity_bytes=cap, cell_tech=tech, associativity=8)
    for cap in (1 << 20, 2 << 20, 4 << 20, 8 << 20)
    for tech in (CellTech.SRAM, CellTech.LP_DRAM)
]

#: Conservative CI floor; quiet hardware lands far above it.
MIN_SPEEDUP = 2.0


def scalar_best(tech, spec, target, cache, obs):
    """The scalar reference's winner: every candidate built, then
    constrained and ranked as objects."""
    designs = feasible_designs(tech, spec, cache=cache, obs=obs)
    return rank(filter_constraints(designs, target), target)[0]


def test_bench_kernels_vs_scalar_sweep():
    target = OptimizationTarget()

    obs_fast = Obs()
    t0 = time.perf_counter()
    fast = solve_batch(BATCH, target, obs=obs_fast, jobs=1)
    wall_fast = time.perf_counter() - t0

    # One EvalCache spans the scalar batch, as it does the serial
    # solve_batch above.
    obs_slow = Obs()
    cache = EvalCache()
    t0 = time.perf_counter()
    slow = []
    for spec in BATCH:
        tech = technology(spec.node_nm)
        slow.append(tuple(
            scalar_best(tech, array_spec, target, cache, obs_slow)
            for array_spec in (data_array_spec(spec), tag_array_spec(spec))
        ))
    wall_slow = time.perf_counter() - t0

    # Contract: the kernels change wall time only, never numbers.
    for solution, (data, tag) in zip(fast, slow):
        assert solution.data == data
        assert solution.tag == tag

    speedup = wall_slow / wall_fast
    payload = {
        "description": (
            "single-core wall-clock time of one solve_batch over the "
            "spec batch: vectorized survivor-batch kernels vs the "
            "scalar per-candidate object path"
        ),
        "batch": [
            f"{spec.capacity_bytes >> 20}MB {spec.cell_tech.value}"
            for spec in BATCH
        ],
        "wall_time_s": {
            "kernels": wall_fast,
            "scalar": wall_slow,
        },
        "speedup": speedup,
        "min_speedup_asserted": MIN_SPEEDUP,
        "sweep_stats": {
            "kernels": SweepStats(obs_fast.metrics).as_dict(),
            "scalar": SweepStats(obs_slow.metrics).as_dict(),
        },
        "bit_identical": True,
    }
    with open(BENCH_FILE, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(
        f"\nkernels: {wall_fast * 1e3:8.1f} ms   "
        f"scalar: {wall_slow * 1e3:8.1f} ms   "
        f"speedup: {speedup:.2f}x"
    )

    assert speedup >= MIN_SPEEDUP, (
        f"vectorized kernels only {speedup:.2f}x over the scalar sweep "
        f"(floor {MIN_SPEEDUP}x)"
    )
