"""Golden-equivalence regression: the optimizer fast path changes nothing.

The fast path is three layers -- the vectorized structural pre-filter,
cross-candidate EvalCache memoization, and the persistent solve
cache -- and every one of them must be numerically invisible.
These tests compare against the naive path (full construction of every
enumerated candidate, no caches) field for field, for SRAM, LP-DRAM, and
COMM-DRAM arrays at 32 and 78 nm.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.array.kernels import survivor_batch
from repro.array.mainmem import MainMemorySpec
from repro.array.organization import (
    ArraySpec,
    EvalCache,
    enumerate_orgs,
    prefilter_grid,
    prefilter_org,
)
from repro.core.config import (
    DENSITY_OPTIMIZED,
    ENERGY_DELAY_OPTIMIZED,
    MemorySpec,
    OptimizationTarget,
)
from repro.core.optimizer import SweepStats, feasible_designs, optimize
from repro.core.solvecache import SolveCache
from repro.obs import Obs
from repro.tech.cells import CellTech
from repro.tech.nodes import technology


def sram_spec(capacity_kb: int = 128) -> ArraySpec:
    return ArraySpec(
        capacity_bits=capacity_kb * 1024 * 8,
        output_bits=512,
        assoc=8,
        cell_tech=CellTech.SRAM,
        periph_device_type="hp-long-channel",
    )


def lp_dram_spec(capacity_kb: int = 256) -> ArraySpec:
    return ArraySpec(
        capacity_bits=capacity_kb * 1024 * 8,
        output_bits=512,
        assoc=8,
        cell_tech=CellTech.LP_DRAM,
        periph_device_type="hp-long-channel",
    )


def comm_dram_spec(capacity_mbit: int = 64) -> ArraySpec:
    return ArraySpec(
        capacity_bits=capacity_mbit << 20,
        output_bits=64,
        assoc=1,
        nbanks=8,
        cell_tech=CellTech.COMM_DRAM,
        periph_device_type="lstp",
        page_bits=8192,
    )


GRID = [
    pytest.param(spec, node, target, id=f"{name}-{node}nm")
    for node in (32.0, 78.0)
    for name, spec, target in (
        ("sram", sram_spec(), OptimizationTarget()),
        ("lp-dram", lp_dram_spec(), OptimizationTarget()),
        ("comm-dram", comm_dram_spec(), DENSITY_OPTIMIZED),
    )
]


def stt_ram_spec(capacity_kb: int = 256) -> ArraySpec:
    return ArraySpec(
        capacity_bits=capacity_kb * 1024 * 8,
        output_bits=512,
        assoc=8,
        cell_tech=CellTech("stt-ram"),
        periph_device_type="hp-long-channel",
    )


#: Every registered technology, plus a paged main-memory chip so the
#: page-matching rule is exercised on the spec the solver really uses.
PREFILTER_SPECS = [
    pytest.param(spec, id=name)
    for name, spec in (
        ("sram", sram_spec()),
        ("lp-dram", lp_dram_spec()),
        ("comm-dram", comm_dram_spec()),
        ("stt-ram", stt_ram_spec()),
        ("main-memory", MainMemorySpec(capacity_bits=1 << 30).array_spec()),
    )
]


def assert_metrics_identical(a, b):
    """Field-for-field (bit-identical float) equality of two metrics."""
    for f in dataclasses.fields(type(a)):
        assert getattr(a, f.name) == getattr(b, f.name), f.name


@pytest.mark.parametrize("spec,node,target", GRID)
def test_fast_path_matches_naive(spec, node, target):
    tech = technology(node)
    naive = feasible_designs(tech, spec, cache=None, prefilter=False)
    fast = feasible_designs(tech, spec, cache=EvalCache(), prefilter=True)
    assert len(naive) == len(fast)
    for a, b in zip(naive, fast):
        assert_metrics_identical(a, b)


@pytest.mark.parametrize("spec,node,target", GRID)
def test_fused_enumeration_matches_filtered_enumeration(spec, node, target):
    """prefilter_grid (the pre-filter fused into enumeration) keeps
    exactly the orgs prefilter_org passes over enumerate_orgs, including
    candidate order (ranking ties break by that order)."""
    fused = [org for org, _ in prefilter_grid(spec)]
    filtered = [
        org for org in enumerate_orgs(spec)
        if prefilter_org(spec, org) is not None
    ]
    assert fused == filtered


@pytest.mark.parametrize("spec,node,target", GRID)
def test_vectorized_grid_matches_fused_enumeration(spec, node, target):
    """The kernels' survivor arrays materialize to exactly the fused
    enumeration: same survivors, same geometries, same order."""
    assert survivor_batch(spec).candidates() == prefilter_grid(spec)


@pytest.mark.parametrize("spec", PREFILTER_SPECS)
def test_prefilter_grid_matches_scalar_oracle(spec):
    """The numpy batch pre-filter equals the scalar ``prefilter_org``
    over ``enumerate_orgs``: same survivors, same geometries, same order
    (ranking ties break by that order)."""
    oracle = [
        (org, prefilter_org(spec, org))
        for org in enumerate_orgs(spec)
        if prefilter_org(spec, org)
    ]
    assert oracle
    assert prefilter_grid(spec) == oracle


def _store_spec(backend, tmp_path) -> str:
    """A solve-store spec for ``backend`` under ``tmp_path``."""
    if backend == "json":
        return str(tmp_path / "solves.json")
    return f"sqlite:{tmp_path / 'solves.db'}"


@pytest.mark.parametrize("backend", ["json", "sqlite"])
@pytest.mark.parametrize("spec,node,target", GRID)
def test_solve_cache_round_trip_is_bit_identical(
    spec, node, target, backend, tmp_path
):
    tech = technology(node)
    direct = optimize(tech, spec, target)

    store = _store_spec(backend, tmp_path)
    cache = SolveCache(store)
    first = optimize(tech, spec, target, solve_cache=cache)
    assert_metrics_identical(first, direct)
    cache.close()

    # A fresh cache object re-reads the backend: the disk round trip
    # must reproduce every float exactly on either backend.
    reread = SolveCache(store)
    cached = optimize(tech, spec, target, solve_cache=reread)
    assert reread.hits == 1
    assert_metrics_identical(cached, direct)
    reread.close()


@pytest.mark.parametrize("jobs", [1, 2, 4])
@pytest.mark.parametrize("backend", ["json", "sqlite"])
def test_solve_batch_bit_identical_on_both_backends(
    backend, jobs, tmp_path
):
    """solve_batch x {json, sqlite} x jobs {1,2,4}: worker processes
    sharing either store produce field-for-field the numbers of the
    cache-free serial path, and a second batch is served entirely from
    the store -- still bit-identical."""
    from repro.core.cacti import solve_batch
    from repro.core.config import MemorySpec

    specs = [
        MemorySpec(
            capacity_bytes=capacity_kb << 10,
            block_bytes=64,
            associativity=8,
            node_nm=32.0,
            cell_tech=CellTech.SRAM,
        )
        for capacity_kb in (16, 32, 64, 128)
    ]
    baseline = solve_batch(specs, jobs=1)

    cache = SolveCache(_store_spec(backend, tmp_path))
    first = solve_batch(specs, solve_cache=cache, jobs=jobs)
    for a, b in zip(baseline, first):
        assert_metrics_identical(a.data, b.data)
        assert_metrics_identical(a.tag, b.tag)

    cache.refresh()
    assert len(cache) == 2 * len(specs)  # data + tag arrays per spec
    again = solve_batch(specs, solve_cache=cache, jobs=1)
    assert cache.hits == 2 * len(specs)
    for a, b in zip(baseline, again):
        assert_metrics_identical(a.data, b.data)
        assert_metrics_identical(a.tag, b.tag)
    cache.close()


@pytest.mark.parametrize("backend", ["json", "sqlite"])
def test_migrated_store_serves_bit_identical_records(backend, tmp_path):
    """Solve into one backend, migrate to the other, re-solve from the
    migrated store: every record survives the migration bit-exactly."""
    from repro.core.solvecache import open_solve_store
    from repro.store import migrate_store

    spec, target = sram_spec(), OptimizationTarget()
    tech = technology(32.0)
    src_spec = _store_spec(backend, tmp_path)
    other = "sqlite" if backend == "json" else "json"
    dst_spec = _store_spec(other, tmp_path)

    cache = SolveCache(src_spec)
    direct = optimize(tech, spec, target, solve_cache=cache)
    cache.close()

    src = open_solve_store(src_spec)
    dst = open_solve_store(dst_spec)
    report = migrate_store(src, dst)
    assert report["migrated"] == 1
    src.close(), dst.close()

    migrated = SolveCache(dst_spec)
    served = optimize(tech, spec, target, solve_cache=migrated)
    assert migrated.hits == 1
    assert_metrics_identical(served, direct)
    migrated.close()


@pytest.mark.parametrize("spec,node,target", GRID)
def test_tracing_is_numerically_invisible(spec, node, target):
    """Observability's determinism contract: a traced solve returns
    bit-identical metrics to an untraced one.  Spans read the clock
    around existing work; they never reorder or perturb it."""
    tech = technology(node)
    plain = optimize(tech, spec, target)
    obs = Obs()
    traced = optimize(tech, spec, target, obs=obs)
    assert_metrics_identical(plain, traced)
    assert len(obs.tracer) > 0  # the trace actually recorded the run


def test_tracing_is_invisible_in_process():
    """Trace on/off: same numbers, with the stats view read too."""
    spec, target = sram_spec(), OptimizationTarget()
    tech = technology(32.0)
    plain = optimize(tech, spec, target)
    obs = Obs()
    traced = optimize(tech, spec, target, obs=obs)
    assert_metrics_identical(plain, traced)
    assert SweepStats(obs.metrics).feasible > 0


def golden_triad_batch() -> tuple[list, list]:
    """The golden triad's recorded solves as (specs, targets)."""
    path = Path(__file__).resolve().parent.parent / "data"
    golden = json.loads((path / "golden_triad.json").read_text())
    presets = {
        "balanced": OptimizationTarget(),
        "density": DENSITY_OPTIMIZED,
        "energy-delay": ENERGY_DELAY_OPTIMIZED,
    }
    specs = [MemorySpec(**r["spec"]) for r in golden["solves"]]
    targets = [presets[r["target"]] for r in golden["solves"]]
    return specs, targets


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_tracing_is_invisible_at_any_job_count(jobs):
    """Trace on/off x jobs {1,2,4} over a batch: same solutions every
    way, including the worker-span shipping path."""
    from repro.core.cacti import solve_batch

    specs, targets = golden_triad_batch()
    plain = solve_batch(specs, targets, jobs=jobs)
    obs = Obs()
    traced = solve_batch(specs, targets, jobs=jobs, obs=obs)
    # ArrayMetrics equality is field-for-field float ==, i.e. bit-identity.
    assert [(s.data, s.tag) for s in traced] == [
        (s.data, s.tag) for s in plain
    ]
    assert len(obs.tracer) > 0


def test_faulted_retry_batch_is_bit_identical():
    """Fault tolerance's determinism contract: a batch whose workers
    crash mid-run under ``on_error="retry"`` -- one solve raising, one
    solve hard-killing its worker process -- completes with
    field-for-field identical solutions to the unfaulted serial run.
    A retried solve recomputes the same spec, and results merge in spec
    order."""
    from repro.core.cacti import solve_batch
    from repro.core.resilience import FaultPlan, FaultSpec, ResiliencePolicy

    specs, targets = golden_triad_batch()
    serial = solve_batch(specs, targets, jobs=1)
    plan = FaultPlan((
        FaultSpec("batch.solve", 0, "raise", trips=1),
        FaultSpec("batch.solve", 2, "kill", trips=1),
    ))
    obs = Obs()
    stats = SweepStats(obs.metrics)
    policy = ResiliencePolicy(
        on_error="retry", max_retries=2, backoff_s=0.01, fault_plan=plan
    )
    faulted = solve_batch(
        specs, targets, jobs=2, obs=obs, resilience=policy
    )
    assert not faulted.failed
    # ArrayMetrics equality is field-for-field float ==, i.e. bit-identity.
    assert [(s.data, s.tag) for s in faulted] == [
        (s.data, s.tag) for s in serial
    ]
    assert stats.retries >= 1  # the raise fault cost one retry
    assert stats.pool_rebuilds >= 1  # the kill fault broke a pool
    assert stats.tasks_failed == 0  # every solve eventually completed


def test_every_sink_together_is_invisible(tmp_path):
    """obs + solve cache all at once, still golden."""
    spec, target = sram_spec(), OptimizationTarget()
    tech = technology(32.0)
    direct = optimize(tech, spec, target)
    kitchen_sink = optimize(
        tech,
        spec,
        target,
        solve_cache=SolveCache(tmp_path / "solves.json"),
        obs=Obs(),
    )
    assert_metrics_identical(direct, kitchen_sink)
