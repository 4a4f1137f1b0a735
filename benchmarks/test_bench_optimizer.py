"""Ablation (paper section 2.4): the solution optimization methodology.

Sweeps the three user-facing optimizer constraints -- max area, max access
time, max repeater delay -- on a 4 MB SRAM array and shows the controlled
exploration of the area/delay/energy space the paper describes, including
the repeater-derating energy savings.

Also times the optimizer fast path (structural pre-filter + cross-candidate
memoization + persistent solve cache) against the naive
construct-every-candidate sweep and records the results in
``BENCH_optimizer.json`` at the repository root.
"""

import json
import os
import time

from conftest import print_table

from repro.core.cacti import data_array_spec, solve, tag_array_spec
from repro.core.config import MemorySpec, OptimizationTarget
from repro.core.optimizer import SweepStats, feasible_designs, optimize
from repro.core.solvecache import SolveCache
from repro.obs import Obs
from repro.tech.nodes import technology

SPEC = MemorySpec(capacity_bytes=4 << 20, block_bytes=64, associativity=8,
                  node_nm=32.0)
TECH = technology(32)


def sweep():
    array_spec = data_array_spec(SPEC)
    points = []
    for area_frac, time_frac, rep in (
        (0.05, 0.05, 0.0),
        (0.05, 0.5, 0.0),
        (0.3, 0.05, 0.0),
        (0.3, 0.5, 0.0),
        (1.0, 1.0, 0.0),
        (0.3, 0.5, 0.5),
    ):
        target = OptimizationTarget(
            max_area_fraction=area_frac,
            max_acctime_fraction=time_frac,
            max_repeater_delay_penalty=rep,
        )
        best = optimize(TECH, array_spec, target)
        points.append((area_frac, time_frac, rep, best))
    return array_spec, points


def test_optimizer_sweep(benchmark):
    array_spec, points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        [f"{a:.2f}", f"{t:.2f}", f"{r:.1f}",
         f"{best.t_access * 1e9:.2f}", f"{best.area * 1e6:.2f}",
         f"{best.e_read_access * 1e9:.3f}", f"{best.p_leakage:.3f}"]
        for a, t, r, best in points
    ]
    print_table(
        "Optimizer constraint sweep (4 MB SRAM, 32 nm)",
        ["max area", "max time", "rep penalty", "access ns", "area mm2",
         "E_rd nJ", "leak W"],
        rows,
    )

    by_key = {(a, t, r): best for a, t, r, best in points}
    tight_area = by_key[(0.05, 0.5, 0.0)]
    loose_area = by_key[(0.3, 0.05, 0.0)]
    # A tight area constraint yields a denser but slower design than a
    # tight access-time constraint.
    assert tight_area.area <= loose_area.area * 1.001
    assert loose_area.t_access <= tight_area.t_access * 1.05

    # Repeater derating saves energy without violating the delay budget.
    base = by_key[(0.3, 0.5, 0.0)]
    derated = by_key[(0.3, 0.5, 0.5)]
    assert derated.e_read_access <= base.e_read_access * 1.02

    # The staged filters genuinely prune the cloud.
    cloud = feasible_designs(TECH, array_spec)
    assert len(cloud) > 20
    print(f"feasible organizations: {len(cloud)}")


BENCH_JSON = os.path.join(os.path.dirname(__file__), "..",
                          "BENCH_optimizer.json")


def test_fast_path_speedup(tmp_path, benchmark):
    """Time the naive sweep against the fast path on a 2 MB SRAM solve
    and write the observability record to BENCH_optimizer.json."""
    spec = MemorySpec(capacity_bytes=2 << 20, block_bytes=64,
                      associativity=8, node_nm=32.0)
    data_spec, tag_spec = data_array_spec(spec), tag_array_spec(spec)

    def naive():
        # The seed code path: build every enumerated candidate of both
        # arrays with no pre-filter and no shared circuit designs.  The
        # module-level wire/cell caches are cleared so earlier tests in
        # the session don't pre-warm the baseline.
        from repro.circuits import repeaters
        from repro.tech import cells

        repeaters._WIRE_CACHE.clear()
        cells.cell.cache_clear()
        feasible_designs(TECH, data_spec, prefilter=False, cache=None)
        feasible_designs(TECH, tag_spec, prefilter=False, cache=None)

    t0 = time.perf_counter()
    naive()
    naive_s = time.perf_counter() - t0

    obs = Obs()
    stats = SweepStats(obs.metrics)

    def fast():
        return solve(spec, obs=obs)

    t0 = time.perf_counter()
    cold = benchmark.pedantic(fast, rounds=1, iterations=1)
    fast_s = time.perf_counter() - t0

    cache = SolveCache(tmp_path / "solves.json")
    solve(spec, solve_cache=cache)  # populate
    t0 = time.perf_counter()
    warm = solve(spec, solve_cache=cache)
    warm_s = time.perf_counter() - t0

    assert warm.access_time == cold.access_time
    speedup = naive_s / fast_s
    record = {
        "spec": "2MB SRAM cache, 64B blocks, 8-way, 32nm (data+tag)",
        "naive_s": round(naive_s, 4),
        "fast_s": round(fast_s, 4),
        "warm_cache_s": round(warm_s, 6),
        "speedup": round(speedup, 2),
        "stats": stats.as_dict(),
    }
    with open(BENCH_JSON, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    print_table(
        "Optimizer fast path (2 MB SRAM solve, 32 nm)",
        ["path", "wall s", "speedup"],
        [
            ["naive sweep", f"{naive_s:.3f}", "1.0x"],
            ["pre-filter + memoized", f"{fast_s:.3f}", f"{speedup:.1f}x"],
            ["warm solve cache", f"{warm_s:.5f}",
             f"{naive_s / warm_s:.0f}x"],
        ],
    )
    print(f"candidates: {stats.enumerated} enumerated, "
          f"{stats.prefiltered} pre-filtered "
          f"({stats.prefilter_rate * 100:.1f}%), {stats.built} built")

    # The fast path must actually be fast; 3x is a conservative floor
    # (typical machines see >5x) that tolerates noisy CI boxes.
    assert speedup > 3.0
    assert warm_s < fast_s / 10
    assert stats.enumerated == stats.prefiltered + stats.built
