"""Optimizer and eval-cache counters are part of the observable model.

``perfbench`` derives ``array.unique_subarrays`` from the eval cache's
subarray misses, and ``SweepStats`` reads the ``optimizer.*`` funnel, so
a faster evaluation path must count exactly what the scalar sweep
counts: one subarray lookup per built candidate, one miss per distinct
shape.  These values were recorded from the per-``Subarray`` evaluation
loop and must not drift, in-process, for the golden triad and for a
fixed batch spanning every technology and both exact and interpolated
nodes.
"""

import json
from pathlib import Path

from repro.core.cacti import solve_batch
from repro.core.config import (
    DENSITY_OPTIMIZED,
    ENERGY_DELAY_OPTIMIZED,
    MemorySpec,
    OptimizationTarget,
)
from repro.obs import Obs

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "data" / "golden_triad.json")
    .read_text()
)
TARGETS = {
    "balanced": OptimizationTarget(),
    "density": DENSITY_OPTIMIZED,
    "energy-delay": ENERGY_DELAY_OPTIMIZED,
}

EIGHT = [
    MemorySpec(capacity_bytes=64 << 10, node_nm=32, cell_tech="sram"),
    MemorySpec(capacity_bytes=512 << 10, node_nm=45, cell_tech="lp-dram"),
    MemorySpec(capacity_bytes=1 << 20, associativity=16, node_nm=32,
               cell_tech="comm-dram"),
    MemorySpec(capacity_bytes=256 << 10, associativity=4, node_nm=32,
               cell_tech="stt-ram"),
    MemorySpec(capacity_bytes=128 << 10, node_nm=38, cell_tech="sram"),
    MemorySpec(capacity_bytes=1 << 20, node_nm=50, cell_tech="lp-dram"),
    MemorySpec(capacity_bytes=4 << 20, nbanks=4, node_nm=78,
               cell_tech="comm-dram"),
    MemorySpec(capacity_bytes=2 << 20, associativity=None, node_nm=90,
               cell_tech="sram"),
]


def counters(specs, targets=None) -> dict:
    obs = Obs()
    solve_batch(specs, targets, jobs=1, obs=obs)
    return {
        name: value
        for name, value in obs.metrics.snapshot()["counters"].items()
        if name.startswith(("optimizer.", "eval_cache.subarray."))
    }


def test_golden_triad_counters():
    specs = [MemorySpec(**r["spec"]) for r in GOLDEN["solves"]]
    targets = [TARGETS[r["target"]] for r in GOLDEN["solves"]]
    assert counters(specs, targets) == {
        "eval_cache.subarray.hits": 8087,
        "eval_cache.subarray.misses": 571,
        "optimizer.built": 8658,
        "optimizer.enumerated": 82320,
        "optimizer.feasible": 8658,
        "optimizer.infeasible_at_build": 0,
        "optimizer.prefiltered": 73662,
    }


def test_mixed_batch_counters():
    assert counters(EIGHT) == {
        "eval_cache.subarray.hits": 8325,
        "eval_cache.subarray.misses": 812,
        "optimizer.built": 9137,
        "optimizer.enumerated": 117306,
        "optimizer.feasible": 9137,
        "optimizer.infeasible_at_build": 0,
        "optimizer.prefiltered": 108169,
    }
