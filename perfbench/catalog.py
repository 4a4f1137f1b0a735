"""What each metric means and which end-to-end number it should move.

``BENCHMARK.json`` lists the metrics with their units and bounds; this
table adds, for every per-layer metric, the end-to-end metric and the
workload it is predicted to move, so a change to one layer can state
beforehand what should change and what should not.  ``run.py`` checks
that both files name the same metrics.
"""

from __future__ import annotations

#: End-to-end metrics (every workload reports each; units as printed).
END_TO_END = {
    "setup_s": "fresh interpreter to the first timed op: imports, plus the"
               " cachedb and store build (cold_cli) or the Table 3 warm-up"
               " (llc_study); median of several set-ups",
    "ops_per_s": "ops completed per second spent in ops; an op is a sweep"
                 " request, a CLI process or a study cell",
    "op_p50_ms": "median op latency",
    "op_p90_ms": "op latency at p90, or at the highest percentile that has"
                 " 10 samples beyond it (printed beside it)",
    "peak_rss_mb": "peak resident memory of the measuring process, or of"
                   " its largest CLI child (cold_cli)",
    "ddr3_err_pct": "mean |error| of the DDR3 validation against the"
                    " paper's part; deterministic, a speed change must not"
                    " move it",
}

#: Per-layer metric -> (end-to-end metric it should move, on which
#: workload; where it should stay put).
PER_LAYER = {
    "import.python_ms": "op_p50_ms on cold_cli; setup_s everywhere",
    "import.numpy_ms": "op_p50_ms on cold_cli; setup_s everywhere",
    "import.repro_ms": "op_p50_ms on cold_cli; setup_s everywhere",
    "import.cli_ms": "op_p50_ms on cold_cli; no op change elsewhere",
    "array.prefilter_ms": "ops_per_s, op_p90_ms on sweep; ~5% of cold_cli"
                          " solve ops; llc_study setup_s only",
    "array.evaluate_ms": "ops_per_s, op_p90_ms on sweep (includes the"
                         " unique-subarray table that calls circuits)",
    "array.rank_ms": "ops_per_s, op_p90_ms on sweep",
    "array.materialize_ms": "ops_per_s, op_p90_ms on sweep",
    "core.solve_ms": "ops_per_s, op_p90_ms on sweep",
    "core.self_ms": "ops_per_s on sweep (solve minus its layer calls)",
    "core.main_memory_ms": "ops_per_s on sweep",
    "validation.ddr3_ms": "ops_per_s on sweep (one call per run)",
    "tech.technology_ms": "ops_per_s on sweep (node interpolation)",
    "array.enumerated": "explains array.*_ms on sweep",
    "array.survivors": "explains array.evaluate_ms on sweep",
    "array.unique_subarrays": "explains array.evaluate_ms on sweep",
    "array.feasible": "explains array.rank_ms on sweep",
    "array.survivor_ratio": "explains array.prefilter_ms on sweep",
    "array.subarray_reuse": "explains array.evaluate_ms on sweep",
    "store.open_ms": "op_p50_ms on cold_cli (sqlite ops); setup_s on sweep",
    "store.get_us": "ops_per_s on sweep; op_p50_ms on cold_cli",
    "store.put_us": "ops_per_s on sweep",
    "store.flush_ms": "ops_per_s on sweep; op_p50_ms on cold_cli",
    "store.hits": "explains store.get_us on sweep and cold_cli",
    "store.misses": "explains array.* work on sweep",
    "store.writes": "explains store.flush_ms on sweep",
    "store.hit_ratio": "ops_per_s on sweep",
    "cachedb.build_s": "setup_s on cold_cli",
    "cachedb.open_ms": "op_p50_ms on cold_cli",
    "cachedb.exact_us": "op_p50_ms on cold_cli",
    "cachedb.interp_us": "op_p50_ms on cold_cli",
    "cachedb.hits": "explains cachedb.exact_us on cold_cli",
    "cachedb.interpolated": "explains cachedb.interp_us on cold_cli",
    "cachedb.fallbacks": "live solves inside cachedb queries on cold_cli",
    "workloads.event_gen_ms": "ops_per_s on llc_study; none elsewhere",
    "sim.run_ms": "ops_per_s on llc_study; none elsewhere",
    "sim.events_per_s": "ops_per_s on llc_study",
    "sim.events": "explains sim.run_ms on llc_study",
    "sim.instructions": "explains sim.run_ms on llc_study",
    "sim.l3_reads": "explains sim.run_ms on llc_study",
    "sim.mem_reads": "explains sim.run_ms on llc_study",
    "sim.coherence_invalidations": "explains sim.run_ms on llc_study",
    "study.config_ms": "the first cell of each configuration on llc_study"
                       " (run_study builds it lazily once Table 3 is warm)",
    "study.energy_model_ms": "the first cell of each configuration on"
                             " llc_study, as study.config_ms",
    "power.hierarchy_ms": "ops_per_s on llc_study",
    "trace.overhead_frac": "none: traced minus untraced op time, over"
                           " untraced",
    "trace.layer_frac": "none: share of traced op time inside layer calls;"
                        " the rest is the benchmark's own time",
}

#: Counts that must repeat exactly across runs of one seed.
COUNTS = tuple(name for name in PER_LAYER
               if name.split(".")[0] in ("array", "store", "cachedb", "sim")
               and not name.endswith(("_ms", "_us", "_s", "_ratio",
                                      "_reuse", "_per_s")))


def _mean(summary, name, scale, field="incl_s"):
    row = summary.get(name)
    return row[field] / row["calls"] * scale if row else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary: dict, counts: dict, overhead: float,
                  layer_frac: float) -> dict:
    """Every per-layer metric from the span summary and the counts.

    Times are the mean inclusive duration of one call (leaf spans, so
    also their self time) except ``core.self_ms``, the mean self time
    of ``core.solve``.  Layers a workload does not reach report 0.
    """
    c = {name: counts.get(name, 0) for name in COUNTS}
    sim_run = summary.get("sim.run", {}).get("incl_s", 0.0)
    ms, us = 1e3, 1e6
    values = {
        "import.python_ms": _mean(summary, "import.python", ms),
        "import.numpy_ms": _mean(summary, "import.numpy", ms),
        "import.repro_ms": _mean(summary, "import.repro", ms),
        "import.cli_ms": _mean(summary, "import.cli", ms),
        "array.prefilter_ms": _mean(summary, "array.prefilter", ms),
        "array.evaluate_ms": _mean(summary, "array.evaluate", ms),
        "array.rank_ms": _mean(summary, "array.rank", ms),
        "array.materialize_ms": _mean(summary, "array.materialize", ms),
        "core.solve_ms": _mean(summary, "core.solve", ms),
        "core.self_ms": _mean(summary, "core.solve", ms, "self_s"),
        "core.main_memory_ms": _mean(summary, "core.main_memory", ms),
        "validation.ddr3_ms": _mean(summary, "validation.ddr3", ms),
        "tech.technology_ms": _mean(summary, "tech.technology", ms),
        "array.survivor_ratio": _ratio(c["array.survivors"],
                                       c["array.enumerated"]),
        "array.subarray_reuse": (1.0 - _ratio(c["array.unique_subarrays"],
                                              c["array.survivors"])
                                 if c["array.survivors"] else 0.0),
        "store.open_ms": _mean(summary, "store.open", ms),
        "store.get_us": _mean(summary, "store.get", us),
        "store.put_us": _mean(summary, "store.put", us),
        "store.flush_ms": _mean(summary, "store.flush", ms),
        "store.hit_ratio": _ratio(c["store.hits"],
                                  c["store.hits"] + c["store.misses"]),
        "cachedb.build_s": _mean(summary, "cachedb.build", 1.0),
        "cachedb.open_ms": _mean(summary, "cachedb.open", ms),
        "cachedb.exact_us": _mean(summary, "cachedb.exact", us),
        "cachedb.interp_us": _mean(summary, "cachedb.interp", us),
        "workloads.event_gen_ms": _mean(summary, "workloads.event_gen", ms),
        "sim.run_ms": _mean(summary, "sim.run", ms),
        "sim.events_per_s": _ratio(c["sim.events"], sim_run),
        "study.config_ms": _mean(summary, "study.config", ms),
        "study.energy_model_ms": _mean(summary, "study.energy_model", ms),
        "power.hierarchy_ms": _mean(summary, "power.hierarchy", ms),
        "trace.overhead_frac": overhead,
        "trace.layer_frac": layer_frac,
    }
    values.update(c)
    return {name: values[name] for name in PER_LAYER}
