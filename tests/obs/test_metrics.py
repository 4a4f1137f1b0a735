"""Unit tests for the metrics registry."""

import json

from repro.obs.metrics import MetricsRegistry


class TestInstruments:
    def test_counter_create_on_first_use(self):
        reg = MetricsRegistry()
        reg.counter("optimizer.built").inc()
        reg.counter("optimizer.built").inc(4)
        assert reg.snapshot()["counters"]["optimizer.built"] == 5

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("workers").set(2)
        reg.gauge("workers").set(8)
        assert reg.snapshot()["gauges"]["workers"] == 8

    def test_histogram_stats(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            reg.histogram("phase.build_s").observe(v)
        h = reg.snapshot()["histograms"]["phase.build_s"]
        assert h == {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0,
                     "mean": 2.0}

    def test_empty_histogram_serializes_cleanly(self):
        reg = MetricsRegistry()
        reg.histogram("never.observed")
        h = reg.snapshot()["histograms"]["never.observed"]
        assert h["count"] == 0 and h["min"] is None and h["max"] is None


class TestDerivedRates:
    def test_hit_rate_from_counter_pair(self):
        reg = MetricsRegistry()
        reg.counter("solve_cache.hits").inc(3)
        reg.counter("solve_cache.misses").inc(1)
        assert reg.snapshot()["derived"]["solve_cache.hit_rate"] == 0.75

    def test_zero_lookups_rate_is_zero(self):
        reg = MetricsRegistry()
        reg.counter("solve_cache.hits")
        reg.counter("solve_cache.misses")
        assert reg.snapshot()["derived"]["solve_cache.hit_rate"] == 0.0

    def test_unpaired_hits_get_no_rate(self):
        reg = MetricsRegistry()
        reg.counter("lonely.hits").inc()
        assert "lonely.hit_rate" not in reg.snapshot()["derived"]


class TestMerging:
    def test_absorb_adds_counters_and_histograms(self):
        worker = MetricsRegistry()
        worker.counter("optimizer.built").inc(10)
        worker.histogram("phase.build_s").observe(0.5)
        parent = MetricsRegistry()
        parent.counter("optimizer.built").inc(2)
        parent.histogram("phase.build_s").observe(1.5)
        parent.absorb(worker.snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["optimizer.built"] == 12
        h = snap["histograms"]["phase.build_s"]
        assert h["count"] == 2 and h["min"] == 0.5 and h["max"] == 1.5

    def test_absorb_gauges_last_write_wins(self):
        worker = MetricsRegistry()
        worker.gauge("solve_cache.records").set(7)
        parent = MetricsRegistry()
        parent.gauge("solve_cache.records").set(3)
        parent.absorb(worker.snapshot())
        assert parent.snapshot()["gauges"]["solve_cache.records"] == 7

    def test_absorb_none_is_a_noop(self):
        parent = MetricsRegistry()
        parent.absorb(None)
        parent.absorb({})
        assert parent.snapshot()["counters"] == {}

    def test_derived_rates_recomputed_not_merged(self):
        worker = MetricsRegistry()
        worker.counter("c.hits").inc(1)
        worker.counter("c.misses").inc(1)
        parent = MetricsRegistry()
        parent.counter("c.hits").inc(3)
        parent.absorb(worker.snapshot())
        assert parent.snapshot()["derived"]["c.hit_rate"] == 4 / 5

    def test_write_round_trips(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.gauge("b").set(1.5)
        path = tmp_path / "m.json"
        reg.write(path)
        snap = json.loads(path.read_text())
        assert snap["counters"] == {"a": 1}
        assert snap["gauges"] == {"b": 1.5}
