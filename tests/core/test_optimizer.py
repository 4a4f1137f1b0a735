"""Unit tests for the staged solution optimizer (paper section 2.4)."""

import pytest

from repro.array.organization import ArraySpec, EvalCache
from repro.core.config import OptimizationTarget
from repro.core.optimizer import (
    NoFeasibleSolution,
    SweepStats,
    feasible_designs,
    filter_constraints,
    optimize,
    pareto_solutions,
    rank,
    rank_floors,
)
from repro.obs import Obs
from repro.tech.cells import CellTech
from repro.tech.nodes import technology

TECH = technology(32)

SPEC = ArraySpec(
    capacity_bits=8 * (256 << 10),  # 256 KB
    output_bits=512,
    assoc=8,
    cell_tech=CellTech.SRAM,
    periph_device_type="hp-long-channel",
)


@pytest.fixture(scope="module")
def designs():
    return feasible_designs(TECH, SPEC)


class TestFeasibleDesigns:
    def test_multiple_solutions(self, designs):
        assert len(designs) > 5

    def test_tradeoffs_exist(self, designs):
        """The solution cloud spans meaningful area and delay ranges."""
        areas = [d.area for d in designs]
        times = [d.t_access for d in designs]
        assert max(areas) > 1.2 * min(areas)
        assert max(times) > 1.5 * min(times)

    def test_infeasible_spec_raises(self):
        tiny = ArraySpec(
            capacity_bits=512,
            output_bits=512,
            assoc=1,
            cell_tech=CellTech.SRAM,
        )
        with pytest.raises(NoFeasibleSolution):
            feasible_designs(TECH, tiny)


class TestStagedFiltering:
    def test_area_constraint_respected(self, designs):
        target = OptimizationTarget(max_area_fraction=0.2)
        kept = filter_constraints(designs, target)
        best_area = min(d.area for d in designs)
        assert all(d.area <= best_area * 1.2 + 1e-18 for d in kept)

    def test_acctime_constraint_is_relative_to_area_filtered_set(self,
                                                                 designs):
        """The access-time filter applies within the area-filtered set,
        not the full cloud -- the staged semantics of section 2.4."""
        target = OptimizationTarget(max_area_fraction=0.1,
                                    max_acctime_fraction=0.05)
        kept = filter_constraints(designs, target)
        best_area = min(d.area for d in designs)
        within_area = [d for d in designs if d.area <= best_area * 1.1]
        best_t = min(d.t_access for d in within_area)
        assert all(d.t_access <= best_t * 1.05 + 1e-18 for d in kept)
        assert kept

    def test_loose_constraints_keep_everything(self, designs):
        target = OptimizationTarget(max_area_fraction=1e9,
                                    max_acctime_fraction=1e9)
        assert len(filter_constraints(designs, target)) == len(designs)


class TestEmptyDesignLists:
    def test_filter_constraints_empty_raises_no_feasible(self):
        with pytest.raises(NoFeasibleSolution):
            filter_constraints([], OptimizationTarget())

    def test_rank_empty_raises_no_feasible(self):
        with pytest.raises(NoFeasibleSolution):
            rank([], OptimizationTarget())


class TestSweepStats:
    def test_counters_account_for_every_candidate(self):
        obs = Obs()
        stats = SweepStats(obs.metrics)
        designs = feasible_designs(TECH, SPEC, obs=obs)
        assert stats.enumerated > 0
        assert stats.enumerated == stats.prefiltered + stats.built
        assert stats.feasible == len(designs)
        assert stats.built == stats.feasible + stats.infeasible_at_build

    def test_eval_cache_hits_counted(self):
        obs = Obs()
        stats = SweepStats(obs.metrics)
        cache = EvalCache()
        feasible_designs(TECH, SPEC, cache=cache, obs=obs)
        assert stats.subarray_hits + stats.subarray_misses == stats.built
        assert stats.subarray_hits > 0
        # H-tree reuse is the cache's own count; the registry keeps no
        # H-tree counters (the kernels never consult the tree cache
        # before the winner is picked).
        assert cache.htree_hits > 0
        assert 0.0 < stats.subarray_hit_rate < 1.0

    def test_stats_accumulate_across_solves(self):
        obs = Obs()
        stats = SweepStats(obs.metrics)
        optimize(TECH, SPEC, OptimizationTarget(), obs=obs)
        first = stats.enumerated
        optimize(TECH, SPEC, OptimizationTarget(), obs=obs)
        assert stats.enumerated == 2 * first
        assert stats.wall_time_s > 0.0

    def test_summary_and_dict_expose_counts(self):
        obs = Obs()
        stats = SweepStats(obs.metrics)
        optimize(TECH, SPEC, OptimizationTarget(), obs=obs)
        text = stats.summary()
        assert "candidates enumerated" in text
        assert "wall time" in text
        d = stats.as_dict()
        assert d["enumerated"] == stats.enumerated
        assert "subarray_hit_rate" in d

    def test_shared_eval_cache_speeds_second_solve(self):
        cache = EvalCache()
        feasible_designs(TECH, SPEC, cache=cache)
        misses = cache.subarray_misses
        feasible_designs(TECH, SPEC, cache=cache)
        # Second identical sweep creates no new subarray designs.
        assert cache.subarray_misses == misses


class TestRanking:
    def test_rank_orders_by_weighted_objective(self, designs):
        target = OptimizationTarget()
        ranked = rank(designs, target)
        assert len(ranked) == len(designs)
        # The first element minimizes the score by construction; spot-check
        # that the ordering is consistent for a recomputed score.
        min_dyn = min(d.e_read_access for d in designs)
        min_leak = min(d.p_leakage + d.p_refresh for d in designs)
        min_cyc = min(d.t_random_cycle for d in designs)
        min_int = min(d.t_interleave for d in designs)

        def score(d):
            return (
                d.e_read_access / min_dyn
                + (d.p_leakage + d.p_refresh) / min_leak
                + d.t_random_cycle / min_cyc
                + d.t_interleave / min_int
            )

        scores = [score(d) for d in ranked]
        assert scores == sorted(scores)

    def test_rank_floors_match_per_metric_minima(self, designs):
        min_dyn, min_leak, min_cyc, min_int = rank_floors(designs)
        assert min_dyn == min(d.e_read_access for d in designs)
        assert min_leak == min(d.p_leakage + d.p_refresh for d in designs)
        assert min_cyc == min(d.t_random_cycle for d in designs)
        assert min_int == min(d.t_interleave for d in designs)

    def test_rank_floors_clamp_nonpositive_minima(self, designs):
        import dataclasses

        refresh_free = [
            dataclasses.replace(d, p_refresh=0.0, p_leakage=0.0)
            for d in designs[:3]
        ]
        floors = rank_floors(refresh_free)
        assert floors[1] == 1e-30

    def test_rank_floors_empty_raises_no_feasible(self):
        with pytest.raises(NoFeasibleSolution):
            rank_floors([])

    def test_precomputed_floors_leave_ranking_unchanged(self, designs):
        """The hoisted-floors fast path must reproduce the recomputing
        path's ordering exactly (same objects, same order)."""
        target = OptimizationTarget(weight_leakage=3.0, weight_cycle=2.0)
        baseline = rank(designs, target)
        hoisted = rank(designs, target, floors=rank_floors(designs))
        assert [id(d) for d in hoisted] == [id(d) for d in baseline]

    def test_weights_steer_selection(self, designs):
        """Cranking the leakage weight must not pick a leakier design than
        cranking the dynamic-energy weight picks."""
        leak_first = rank(
            designs, OptimizationTarget(weight_leakage=50.0)
        )[0]
        dyn_first = rank(
            designs, OptimizationTarget(weight_dynamic=50.0)
        )[0]
        assert leak_first.p_leakage <= dyn_first.p_leakage * 1.001


class TestOptimize:
    def test_returns_single_best(self):
        best = optimize(TECH, SPEC, OptimizationTarget())
        assert best.t_access > 0

    def test_pareto_solutions_sorted_and_bounded(self):
        target = OptimizationTarget(max_area_fraction=0.3)
        cloud = pareto_solutions(TECH, SPEC, target)
        assert len(cloud) >= 1
        best_area = min(d.area for d in feasible_designs(TECH, SPEC))
        assert all(d.area <= best_area * 1.3 + 1e-18 for d in cloud)

    def test_repeater_penalty_threads_through(self):
        loose = optimize(
            TECH, SPEC,
            OptimizationTarget(max_repeater_delay_penalty=0.5),
        )
        assert loose.spec.max_repeater_delay_penalty == 0.5
