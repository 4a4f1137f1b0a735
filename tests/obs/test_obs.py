"""Unit tests for the Obs bundle and the phase/maybe_span helpers."""

from repro.core.optimizer import SweepStats
from repro.obs import Obs, maybe_span, phase


class TestMaybeSpan:
    def test_none_obs_is_a_free_noop(self):
        with maybe_span(None, "solve") as span:
            assert span is None

    def test_live_obs_records_a_span(self):
        obs = Obs()
        with maybe_span(obs, "solve", capacity=64) as span:
            assert span is not None
        assert [s.name for s in obs.tracer.spans] == ["solve"]
        assert obs.tracer.spans[0].attrs == {"capacity": 64}


class TestPhase:
    def test_no_sinks_yields_nothing(self):
        with phase("build") as span:
            assert span is None

    def test_obs_records_span_and_histogram(self):
        obs = Obs()
        with phase("build", obs):
            pass
        assert [s.name for s in obs.tracer.spans] == ["build"]
        h = obs.metrics.snapshot()["histograms"]["phase.build_s"]
        assert h["count"] == 1

    def test_one_measurement_feeds_both_sinks(self):
        """The span and the histogram share one clock reading, and
        SweepStats reads that same histogram back."""
        obs = Obs()
        with phase("build", obs) as span:
            pass
        h = obs.metrics.snapshot()["histograms"]["phase.build_s"]
        assert h["sum"] == span.duration_s
        assert SweepStats(obs.metrics).phase_times["build"] == h["sum"]


class TestObsBundle:
    def test_delegates(self):
        obs = Obs()
        obs.inc("events")
        obs.inc("events", 2)
        obs.observe("latency", 0.5)
        obs.gauge("workers", 4)
        snap = obs.metrics.snapshot()
        assert snap["counters"]["events"] == 3
        assert snap["histograms"]["latency"]["count"] == 1
        assert snap["gauges"]["workers"] == 4

    def test_worker_round_trip(self):
        worker = Obs()
        with worker.span("chunk"):
            worker.inc("optimizer.built", 5)
        parent = Obs()
        parent.inc("optimizer.built", 1)
        parent.absorb_worker(worker.export_payload())
        assert parent.metrics.snapshot()["counters"]["optimizer.built"] == 6
        assert [s.name for s in parent.tracer.spans] == ["chunk"]

    def test_absorb_worker_none_is_a_noop(self):
        parent = Obs()
        parent.absorb_worker(None)
        assert len(parent.tracer) == 0

    def test_worker_histograms_land_under_worker_prefix(self):
        worker = Obs()
        with phase("build", worker):
            pass
        parent = Obs()
        parent.absorb_worker(worker.export_payload())
        snap = parent.metrics.snapshot()
        assert "phase.build_s" not in snap["histograms"]
        assert snap["histograms"]["worker.phase.build_s"]["count"] == 1
        assert snap["counters"]["workers.absorbed"] == 1
