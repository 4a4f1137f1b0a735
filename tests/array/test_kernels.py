"""Vectorized-kernel equivalence: arrays vs. the scalar object path.

The kernels in :mod:`repro.array.kernels` promise bit-identity with the
per-candidate scalar composition in ``organization._Builder``, which
``feasible_designs`` runs over every survivor.  These
tests enforce the promise property-style: for every registered memory
technology (SRAM, LP-DRAM, COMM-DRAM, STT-RAM), over data arrays, tag
arrays, and a paged commodity-DRAM part, randomized survivor samples
are rebuilt through ``build_organization`` and compared to the batch
arrays field for field with exact ``==`` -- no tolerances anywhere.
"""

import random

import pytest

from repro.array import kernels
from repro.array.organization import (
    ArraySpec,
    EvalCache,
    prefilter_grid,
)
from repro.core.cacti import data_array_spec, tag_array_spec
from repro.core.config import MemorySpec, OptimizationTarget
from repro.core.optimizer import (
    SweepStats,
    feasible_designs,
    filter_constraints,
    optimize,
    rank,
)
from repro.obs import Obs
from repro.tech.cells import CellTech
from repro.tech.nodes import technology
from repro.tech.registry import registered_names

TECH = technology(32.0)

#: ArrayMetrics fields mirrored by EvaluatedBatch arrays.
METRIC_FIELDS = (
    "t_access",
    "t_random_cycle",
    "t_interleave",
    "e_activate",
    "e_read_column",
    "e_write_column",
    "e_precharge",
    "e_read_access",
    "p_leakage",
    "p_refresh",
    "area",
    "bank_width",
    "bank_height",
    "area_efficiency",
)


def specs_for(name: str) -> list[ArraySpec]:
    """Data and tag arrays of a 256 KB cache in the named technology,
    plus a paged multi-bank part for commodity DRAM."""
    mem = MemorySpec(
        capacity_bytes=256 << 10,
        associativity=8,
        node_nm=32.0,
        cell_tech=CellTech(name),
    )
    specs = [data_array_spec(mem), tag_array_spec(mem)]
    if name == "comm-dram":
        specs.append(
            ArraySpec(
                capacity_bits=64 << 20,
                output_bits=64,
                assoc=1,
                nbanks=8,
                cell_tech=CellTech.COMM_DRAM,
                periph_device_type="lstp",
                page_bits=8192,
            )
        )
    return specs


def evaluated(spec: ArraySpec):
    batch = kernels.survivor_batch(spec)
    assert batch.size > 0
    return kernels.evaluate_batch(TECH, spec, batch, EvalCache())


@pytest.mark.parametrize("name", registered_names())
class TestKernelScalarEquivalence:
    def test_batch_matches_prefilter_grid(self, name):
        for spec in specs_for(name):
            batch = kernels.survivor_batch(spec)
            assert batch.candidates() == prefilter_grid(spec)

    def test_random_survivors_match_scalar_build_exactly(self, name):
        from repro.array.organization import build_organization

        rng = random.Random(0xC0FFEE)
        for spec in specs_for(name):
            ev = evaluated(spec)
            sample = rng.sample(range(ev.size), k=min(25, ev.size))
            cache = EvalCache()
            for i in sample:
                org, geometry = ev.batch.org_at(i)
                scalar = build_organization(
                    TECH, spec, org, cache=cache, geometry=geometry
                )
                for field in METRIC_FIELDS:
                    assert float(getattr(ev, field)[i]) == getattr(
                        scalar, field
                    ), (name, spec.cell_tech, field, org)

    def test_feasibility_counts_match_scalar_sweep(self, name):
        for spec in specs_for(name):
            ev = evaluated(spec)
            obs = Obs()
            stats = SweepStats(obs.metrics)
            designs = feasible_designs(
                TECH, spec, cache=EvalCache(), obs=obs
            )
            assert stats.feasible == ev.size
            assert stats.infeasible_at_build == ev.n_infeasible
            assert len(designs) == ev.size

    def test_rank_batch_matches_scalar_rank_order(self, name):
        target = OptimizationTarget(weight_leakage=2.0)
        for spec in specs_for(name):
            ev = evaluated(spec)
            order = kernels.rank_batch(ev, target)
            designs = feasible_designs(TECH, spec, cache=EvalCache())
            ranked = rank(filter_constraints(designs, target), target)
            assert [ev.batch.org_at(int(i))[0] for i in order] == [
                d.org for d in ranked
            ]

    def test_optimize_is_bit_identical_to_scalar_path(self, name):
        target = OptimizationTarget()
        for spec in specs_for(name):
            fast = optimize(TECH, spec, target)
            designs = feasible_designs(TECH, spec, cache=EvalCache())
            slow = rank(filter_constraints(designs, target), target)[0]
            assert fast == slow


class TestStatsInvariantsOnKernelPath:
    def test_counters_balance_through_optimize(self):
        spec = specs_for("sram")[0]
        obs = Obs()
        stats = SweepStats(obs.metrics)
        optimize(TECH, spec, OptimizationTarget(), obs=obs)
        assert stats.enumerated == stats.prefiltered + stats.built
        assert stats.built == stats.feasible + stats.infeasible_at_build
        assert stats.subarray_hits + stats.subarray_misses == stats.built
