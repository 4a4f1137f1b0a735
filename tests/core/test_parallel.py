"""Unit tests for the multi-process batch execution engine."""

from dataclasses import replace

import pytest

from repro.array.organization import EvalCache
from repro.core import parallel
from repro.core.cacti import data_array_spec, solve, solve_batch, CactiD
from repro.core.config import MemorySpec, OptimizationTarget
from repro.core.optimizer import SweepStats, feasible_designs
from repro.core.parallel import parallel_map, resolve_jobs
from repro.core.solvecache import SolveCache
from repro.obs import Obs
from repro.study.sensitivity import capacity_sweep, sweep
from repro.tech.cells import CellTech
from repro.tech.nodes import technology

BATCH = [
    MemorySpec(capacity_bytes=512 << 10, cell_tech=CellTech.SRAM),
    MemorySpec(capacity_bytes=1 << 20, cell_tech=CellTech.SRAM),
    MemorySpec(capacity_bytes=1 << 20, cell_tech=CellTech.LP_DRAM),
]


class TestResolveJobs:
    def test_explicit_counts_pass_through(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_auto_means_at_least_one_core(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-1) >= 1

    def test_auto_sentinel_resolves_to_all_cores(self):
        assert resolve_jobs("auto") == resolve_jobs(None)


class TestEffectiveJobs:
    def test_explicit_requests_bypass_the_heuristic(self):
        # A literal count is honored even for tiny workloads -- only
        # "auto" second-guesses the caller.
        assert parallel.effective_jobs(1, n_tasks=10_000_000) == 1
        assert parallel.effective_jobs(7, n_tasks=1) == 7
        assert parallel.effective_jobs(0, n_tasks=1) == resolve_jobs(None)

    @staticmethod
    def _four_cores(monkeypatch):
        monkeypatch.setattr(
            parallel.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
            raising=False,
        )

    def test_auto_goes_serial_below_min_tasks(self, monkeypatch):
        self._four_cores(monkeypatch)
        assert parallel.MIN_PARALLEL_TASKS == 2
        assert parallel.effective_jobs("auto", n_tasks=1) == 1
        assert parallel.effective_jobs("auto", n_tasks=0) == 1

    def test_auto_goes_wide_at_or_above_min_tasks(self, monkeypatch):
        self._four_cores(monkeypatch)
        assert parallel.effective_jobs("auto", n_tasks=2) == 4
        assert parallel.effective_jobs("auto", n_tasks=10_000) == 4

    def test_auto_without_task_count_goes_wide(self):
        assert parallel.effective_jobs("auto") == resolve_jobs(None)

    def test_auto_goes_serial_on_one_core(self, monkeypatch):
        monkeypatch.setattr(
            parallel.os, "sched_getaffinity", lambda pid: {0},
            raising=False,
        )
        assert parallel.effective_jobs("auto", n_tasks=10_000_000) == 1


def _double(x):
    return 2 * x


class TestParallelMap:
    def test_serial_fallback_preserves_order(self):
        assert parallel_map(_double, [3, 1, 2], jobs=1) == [6, 2, 4]

    def test_process_pool_preserves_order(self):
        assert parallel_map(_double, list(range(20)), jobs=2) == [
            2 * x for x in range(20)
        ]


class TestSolveBatch:
    def test_serial_batch_matches_individual_solves(self):
        individual = [solve(spec) for spec in BATCH]
        batch = solve_batch(BATCH, jobs=1)
        for a, b in zip(individual, batch):
            assert a.data == b.data and a.tag == b.tag

    def test_parallel_batch_is_bit_identical(self):
        serial = solve_batch(BATCH, jobs=1)
        sharded = solve_batch(BATCH, jobs=2)
        for a, b in zip(serial, sharded):
            assert a.data == b.data and a.tag == b.tag

    def test_target_sequence_must_match_specs(self):
        with pytest.raises(ValueError):
            solve_batch(BATCH, [OptimizationTarget()])

    def test_workers_share_persistent_cache(self, tmp_path):
        cache = SolveCache(tmp_path / "solves.json")
        obs = Obs()
        stats = SweepStats(obs.metrics)
        solve_batch(BATCH, solve_cache=cache, obs=obs, jobs=2)
        # Each cache spec contributes a data and a tag array record,
        # written by the workers and visible to the parent after merge.
        assert len(cache) == 2 * len(BATCH)
        assert stats.workers_absorbed == len(BATCH)
        # A second batch is served from disk inside the workers.
        again_obs = Obs()
        again = SweepStats(again_obs.metrics)
        solve_batch(BATCH, solve_cache=cache, obs=again_obs, jobs=2)
        assert again.solve_cache_hits == 2 * len(BATCH)
        assert again.built == 0

    def test_facade_batch(self, tmp_path):
        tool = CactiD(
            node_nm=32.0, cache_path=tmp_path / "c.json", obs=Obs()
        )
        batch = tool.solve_batch(BATCH, jobs=2)
        assert [s.spec for s in batch] == BATCH
        assert tool.stats.workers_absorbed == len(BATCH)
        assert len(tool.solve_cache) == 2 * len(BATCH)

    def test_facade_batch_rejects_wrong_node(self):
        tool = CactiD(node_nm=45.0)
        with pytest.raises(ValueError):
            tool.solve_batch(BATCH)


class TestParallelSensitivity:
    BASE = MemorySpec(capacity_bytes=256 << 10)

    def test_shared_eval_cache_reuses_designs_across_points(self):
        obs = Obs()
        stats = SweepStats(obs.metrics)
        capacity_sweep(self.BASE, factors=(1, 2, 4), obs=obs)
        # Neighboring points share subarray problems; the reuse must be
        # visible in the sweep stats.  (H-tree reuse is only observable
        # on the scalar path: the vectorized kernels fold tree delay
        # into closed-form arithmetic and touch the tree cache just for
        # materialized winners -- see the scalar-path check below.)
        assert stats.subarray_hits > 0

    def test_shared_eval_cache_reuses_htrees_on_scalar_path(self):
        cache, obs = EvalCache(), Obs()
        tech = technology(self.BASE.node_nm)
        for factor in (1, 2, 4):
            spec = replace(
                self.BASE, capacity_bytes=self.BASE.capacity_bytes * factor
            )
            feasible_designs(
                tech, data_array_spec(spec), cache=cache, obs=obs
            )
        assert SweepStats(obs.metrics).subarray_hits > 0
        assert cache.htree_hits > 0

    def test_parallel_sweep_matches_serial(self):
        serial = capacity_sweep(self.BASE, factors=(1, 2, 4))
        sharded = capacity_sweep(self.BASE, factors=(1, 2, 4), jobs=2)
        for a, b in zip(serial.points, sharded.points):
            assert a.value == b.value
            assert (a.solution is None) == (b.solution is None)
            if a.solution is not None:
                assert a.solution.data == b.solution.data
                assert a.solution.tag == b.solution.tag

    def test_parallel_sweep_tolerates_infeasible_points(self):
        # 3 banks cannot divide most capacities: the invalid points
        # must come back as None in order, not crash the pool.
        result = sweep(self.BASE, "nbanks", [1, 3, 2], jobs=2)
        values = [p.value for p in result.points]
        assert values == [1.0, 3.0, 2.0]
        assert result.points[0].solution is not None

    def test_parallel_sweep_absorbs_worker_stats(self):
        obs = Obs()
        stats = SweepStats(obs.metrics)
        capacity_sweep(self.BASE, factors=(1, 2), obs=obs, jobs=2)
        assert stats.workers_absorbed == 2
        assert stats.feasible > 0


class TestOneEngine:
    """Every batch runs through one engine, whatever the policy."""

    SPECS = [
        MemorySpec(capacity_bytes=32 << 10, block_bytes=64,
                   associativity=8, node_nm=32.0),
        MemorySpec(capacity_bytes=64 << 10, block_bytes=64,
                   associativity=8, node_nm=32.0),
    ]

    def _run_twice(self, tmp_path, resilience):
        cache = SolveCache(f"sqlite:{tmp_path / 'solves.db'}")
        obs = Obs()
        runs = [
            solve_batch(self.SPECS, solve_cache=cache, jobs=1, obs=obs,
                        resilience=resilience)
            for _ in range(2)
        ]
        cache.close()
        return runs, cache, obs.metrics.snapshot()

    def test_default_and_explicit_policy_are_one_path(self, tmp_path):
        from repro.core.resilience import ResiliencePolicy

        plain = self._run_twice(tmp_path / "plain", None)
        policy = self._run_twice(tmp_path / "policy", ResiliencePolicy())
        (plain_runs, plain_cache, plain_snap) = plain
        (policy_runs, policy_cache, policy_snap) = policy
        for a, b in zip(plain_runs, policy_runs):
            assert [(s.data, s.tag) for s in a] == [
                (s.data, s.tag) for s in b
            ]

        def counters(snap):
            return {
                name: value for name, value in snap["counters"].items()
                if not name.startswith("resilience.")
            }

        assert counters(plain_snap) == counters(policy_snap)
        assert set(plain_snap["histograms"]) == set(
            policy_snap["histograms"]
        )
        assert not any(
            name.startswith("worker.") for name in policy_snap["histograms"]
        )
        # Two specs, data + tag arrays each: cold, then warm.
        for cache in (plain_cache, policy_cache):
            assert (cache.hits, cache.misses) == (4, 4)
        assert (
            plain_snap["counters"]["store.flush_writes"]
            == policy_snap["counters"]["store.flush_writes"]
        )
        # In-process tasks used the caller's caches, never worker ones.
        assert parallel._WORKER_SOLVE_CACHES == {}
        assert parallel._WORKER_EVAL_CACHE is None

    def test_resume_does_not_recount_restored_work(self, tmp_path):
        from repro.core.resilience import Journal, ResiliencePolicy

        path = tmp_path / "batch.journal"
        first = ResiliencePolicy(journal=Journal(path))
        solved = solve_batch(self.SPECS, jobs=1, obs=Obs(),
                             resilience=first)
        first.journal.close()
        assert solved.restored == 0

        obs = Obs()
        resumed = ResiliencePolicy(journal=Journal(path))
        restored = solve_batch(self.SPECS, jobs=1, obs=obs,
                               resilience=resumed)
        resumed.journal.close()
        assert restored.restored == 2
        assert [(s.data, s.tag) for s in restored] == [
            (s.data, s.tag) for s in solved
        ]
        c = obs.metrics.snapshot()["counters"]
        assert c["resilience.journal_restored"] == 2
        assert c.get("optimizer.built", 0) == 0
        assert c.get("workers.absorbed", 0) == 0
        assert "solve" not in [d["name"] for d in obs.tracer.to_dicts()]

    def test_pooled_sweep_reports_worker_utilization(self):
        obs = Obs()
        capacity_sweep(self.SPECS[0], factors=(1, 2), obs=obs, jobs=2)
        utilization = obs.metrics.snapshot()["gauges"][
            "parallel.worker_utilization"
        ]
        assert 0.0 < utilization <= 1.0
