"""Unit tests for SweepStats itself: a read-only view over a registry.

The optimizer integration tests (test_optimizer.py) cover counters
during real sweeps; these cover the view's own arithmetic, including
the division edge cases, and the worker-payload absorption
(``Obs.absorb_worker``) the parallel engine relies on.
"""

import time

import pytest

from repro.core.optimizer import SweepStats
from repro.obs import MetricsRegistry, Obs, phase


def registry(**counters) -> MetricsRegistry:
    """A registry holding ``counters`` (dots spelled as ``__``)."""
    metrics = MetricsRegistry()
    for name, value in counters.items():
        metrics.counter(name.replace("__", ".")).inc(value)
    return metrics


def worker_payload(**histograms) -> dict:
    """A worker's export payload with one sample per histogram."""
    worker = Obs()
    for name, seconds in histograms.items():
        worker.observe(name.replace("__", "."), seconds)
    return worker.export_payload()


class TestRateEdgeCases:
    def test_zero_candidates_prefilter_rate_is_zero(self):
        assert SweepStats(MetricsRegistry()).prefilter_rate == 0.0

    def test_zero_lookups_hit_rates_are_zero(self):
        assert SweepStats(MetricsRegistry()).subarray_hit_rate == 0.0

    def test_rates_with_counts(self):
        stats = SweepStats(registry(
            optimizer__enumerated=100,
            optimizer__prefiltered=75,
            eval_cache__subarray__hits=3,
            eval_cache__subarray__misses=1,
        ))
        assert stats.prefilter_rate == 0.75
        assert stats.subarray_hit_rate == 0.75

    def test_reading_creates_no_instruments(self):
        metrics = MetricsRegistry()
        SweepStats(metrics).as_dict()
        SweepStats(metrics).summary()
        assert metrics.snapshot() == MetricsRegistry().snapshot()

    def test_view_is_read_only(self):
        stats = SweepStats(MetricsRegistry())
        with pytest.raises(AttributeError):
            stats.enumerated = 5
        with pytest.raises(AttributeError):
            stats.no_such_counter


class TestAsDictAndSummary:
    def test_as_dict_round_trips_every_counter(self):
        stats = SweepStats(registry(
            optimizer__enumerated=10,
            optimizer__prefiltered=4,
            optimizer__built=6,
            optimizer__feasible=5,
            solve_cache__hits=1,
            store__flush_writes=2,
            resilience__retries=3,
        ))
        d = stats.as_dict()
        assert d["enumerated"] == 10
        assert d["prefiltered"] == 4
        assert d["built"] == 6
        assert d["feasible"] == 5
        assert d["solve_cache_hits"] == 1
        assert d["store_flush_writes"] == 2
        assert d["retries"] == 3
        assert d["prefilter_rate"] == 0.4
        assert d["phase_times"] == {}
        assert d["workers_absorbed"] == 0

    def test_empty_stats_summary_renders(self):
        text = SweepStats(MetricsRegistry()).summary()
        assert "candidates enumerated : 0" in text
        assert "(0.0%)" in text
        assert "workers" not in text
        assert "h-tree" not in text

    def test_summary_shows_workers_and_phases_when_present(self):
        obs = Obs()
        obs.absorb_worker(worker_payload(phase__optimize_s=0.5))
        obs.observe("phase.build_s", 0.25)
        text = SweepStats(obs.metrics).summary()
        assert "workers               : 1 payloads, 500.0 ms" in text
        assert "phase build" in text
        assert "worker phase optimize" in text

    def test_as_dict_phase_times_is_a_copy(self):
        obs = Obs()
        obs.observe("phase.build_s", 1.0)
        stats = SweepStats(obs.metrics)
        stats.as_dict()["phase_times"]["build"] = 99.0
        assert stats.phase_times["build"] == 1.0
        assert obs.metrics.histograms["phase.build_s"].total == 1.0

    def test_wall_time_is_optimize_plus_pareto(self):
        obs = Obs()
        obs.observe("phase.optimize_s", 0.5)
        obs.observe("phase.pareto_s", 0.25)
        obs.observe("phase.batch_s", 8.0)
        assert SweepStats(obs.metrics).wall_time_s == 0.75


class TestPhaseTimers:
    def test_phase_times_accumulate(self):
        obs = Obs()
        obs.observe("phase.build_s", 0.5)
        obs.observe("phase.build_s", 0.25)
        obs.observe("phase.rank_s", 0.1)
        assert SweepStats(obs.metrics).phase_times == {
            "build": 0.75, "rank": 0.1,
        }

    def test_phase_context_manager_measures_wall_time(self):
        obs = Obs()
        with phase("sleep", obs):
            time.sleep(0.01)
        assert SweepStats(obs.metrics).phase_times["sleep"] >= 0.01

    def test_phase_records_even_on_exception(self):
        obs = Obs()
        try:
            with phase("boom", obs):
                raise RuntimeError
        except RuntimeError:
            pass
        assert "boom" in SweepStats(obs.metrics).phase_times


class TestAbsorbWorker:
    def test_counters_sum_across_payloads(self):
        obs = Obs()
        for counts in (
            {"optimizer.built": 10, "optimizer.infeasible_at_build": 2,
             "eval_cache.subarray.hits": 5},
            {"optimizer.built": 7, "optimizer.infeasible_at_build": 1,
             "eval_cache.subarray.misses": 3},
        ):
            worker = Obs()
            for name, n in counts.items():
                worker.inc(name, n)
            obs.absorb_worker(worker.export_payload())
        stats = SweepStats(obs.metrics)
        assert stats.built == 17
        assert stats.infeasible_at_build == 3
        assert stats.subarray_hits == 5
        assert stats.subarray_misses == 3
        assert stats.workers_absorbed == 2

    def test_worker_wall_time_lands_in_worker_time(self):
        obs = Obs()
        obs.absorb_worker(worker_payload(phase__optimize_s=0.5))
        obs.absorb_worker(worker_payload(phase__pareto_s=0.25))
        stats = SweepStats(obs.metrics)
        assert stats.worker_time_s == 0.75
        assert stats.wall_time_s == 0.0

    def test_absorbing_full_worker_payload(self):
        worker = Obs()
        worker.inc("optimizer.enumerated", 100)
        worker.inc("optimizer.feasible", 30)
        worker.inc("solve_cache.hits", 1)
        worker.inc("solve_cache.misses", 2)
        worker.observe("phase.build_s", 0.5)
        parent = Obs()
        parent.inc("optimizer.enumerated", 5)
        parent.absorb_worker(worker.export_payload())
        stats = SweepStats(parent.metrics)
        assert stats.enumerated == 105
        assert stats.feasible == 30
        assert stats.solve_cache_hits == 1
        assert stats.solve_cache_misses == 2
        # Worker phase CPU is reported separately; it must never land
        # in the parent's wall-clock phase timers (concurrent workers
        # would sum to more CPU than elapsed wall time).
        assert stats.worker_phase_times["build"] == 0.5
        assert "build" not in stats.phase_times

    def test_worker_phase_times_stay_off_parent_wall_clock(self):
        """Regression: at jobs=N the parent's ``phase_times`` used to
        accumulate every worker's per-phase CPU, reporting e.g. a
        1.73 s build phase against 0.66 s of actual wall time."""
        parent = Obs()
        parent.observe("phase.build_s", 0.66)  # parent-measured wall time
        for _ in range(4):  # four concurrent workers' CPU payloads
            parent.absorb_worker(worker_payload(phase__build_s=0.43))
        stats = SweepStats(parent.metrics)
        assert stats.phase_times["build"] == 0.66
        assert stats.worker_phase_times["build"] == pytest.approx(1.72)
        payload = stats.as_dict()
        assert payload["phase_times"]["build"] == 0.66
        assert payload["worker_phase_times"]["build"] == pytest.approx(1.72)

    def test_nested_worker_phase_times_forward(self):
        """A mid-level worker forwards absorbed sub-worker histograms
        under ``worker.``; upstream they are not prefixed twice."""
        mid = Obs()
        mid.absorb_worker(worker_payload(phase__build_s=0.2))
        top = Obs()
        top.absorb_worker(mid.export_payload())
        stats = SweepStats(top.metrics)
        assert stats.worker_phase_times == {"build": 0.2}
        assert stats.phase_times == {}
        assert "worker.worker.phase.build_s" not in top.metrics.histograms

    def test_unknown_keys_ignored(self):
        obs = Obs()
        obs.absorb_worker({"pid": 1234, "prefilter_rate": 0.9})
        assert SweepStats(obs.metrics).as_dict()["enumerated"] == 0

    def test_nested_absorption_counts_forward(self):
        """A worker that itself absorbed sub-workers reports a payload
        whose counts survive one more absorption."""
        sub = Obs()
        sub.inc("optimizer.built", 3)
        sub.observe("phase.optimize_s", 0.1)
        mid = Obs()
        mid.absorb_worker(sub.export_payload())
        top = Obs()
        top.absorb_worker(mid.export_payload())
        stats = SweepStats(top.metrics)
        assert stats.built == 3
        assert stats.worker_time_s == 0.1
        assert stats.workers_absorbed == 2  # mid itself + its sub-worker
