"""Tests for the command-line interface."""

import pytest

from repro.cli import main, parse_size


class TestParseSize:
    def test_suffixes(self):
        assert parse_size("32K") == 32 << 10
        assert parse_size("2M") == 2 << 20
        assert parse_size("1G") == 1 << 30
        assert parse_size("1.5M") == int(1.5 * (1 << 20))

    def test_raw_integers(self):
        assert parse_size("4096") == 4096

    def test_lowercase(self):
        assert parse_size("64k") == 64 << 10

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_size("M")
        with pytest.raises(ValueError):
            parse_size("abc")

    def test_non_positive_rejected(self):
        for bad in ("0", "-1", "-4K", "-2M", "-1G", "0K", "-0.5M"):
            with pytest.raises(ValueError, match="positive"):
                parse_size(bad)

    def test_positive_still_accepted(self):
        assert parse_size("1") == 1
        assert parse_size("0.5K") == 512


class TestCommands:
    def test_cache(self, capsys):
        rc = main(["cache", "--capacity", "256K", "--assoc", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "access time" in out
        assert "leakage power" in out

    def test_plain_ram(self, capsys):
        rc = main(["cache", "--capacity", "256K", "--assoc", "0"])
        assert rc == 0

    def test_cache_lp_dram_sequential(self, capsys):
        rc = main([
            "cache", "--capacity", "1M", "--tech", "lp-dram",
            "--sequential", "--optimize", "energy-delay",
        ])
        assert rc == 0
        assert "lp-dram" in capsys.readouterr().out

    def test_main_memory(self, capsys):
        rc = main(["main-memory", "--capacity", "1G", "--node", "78"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tRCD" in out and "refresh power" in out

    def test_invalid_spec_returns_error_code(self, capsys):
        rc = main(["cache", "--capacity", "5", "--assoc", "3"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_validate_ddr3(self, capsys):
        rc = main(["validate-ddr3"])
        assert rc == 0
        assert "mean |error|" in capsys.readouterr().out

    def test_infeasible_request_is_a_clean_error(self, capsys):
        """NoFeasibleSolution subclasses RuntimeError, not ValueError; it
        must still print `error: ...` and exit 2, not dump a traceback."""
        rc = main(["cache", "--capacity", "1K", "--assoc", "8"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no feasible organization" in err

    def test_negative_capacity_is_a_clean_error(self, capsys):
        """argparse rejects the value at parse time with our message,
        not a generic 'invalid value' or a traceback from the solver."""
        with pytest.raises(SystemExit) as exc:
            main(["cache", "--capacity=-4K"])
        assert exc.value.code == 2
        assert "positive" in capsys.readouterr().err

    def test_stats_flag_prints_sweep_stats(self, capsys):
        rc = main(["cache", "--capacity", "256K", "--stats"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "candidates enumerated" in out
        assert "solve cache" in out

    def test_cache_flag_creates_and_reuses_cache(self, tmp_path, capsys):
        path = tmp_path / "solves.json"
        args = ["cache", "--capacity", "256K", "--cache", str(path),
                "--stats"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert path.exists()
        assert "solve cache           : 0 hits" in first

        assert main(args) == 0
        second = capsys.readouterr().out
        assert "solve cache           : 2 hits" in second
        # The cached run reports the same design.
        assert first.split("\n\n")[0] == second.split("\n\n")[0]

    def test_unwritable_cache_path_is_a_clean_error(self, tmp_path, capsys):
        """--cache pointing at a directory must not dump a traceback."""
        rc = main(["cache", "--capacity", "256K",
                   "--cache", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_cache_flag_main_memory(self, tmp_path, capsys):
        path = tmp_path / "solves.json"
        args = ["main-memory", "--capacity", "1G", "--node", "78",
                "--cache", str(path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestObservabilityFlags:
    """--trace and --metrics on every subcommand."""

    def test_cache_writes_trace_and_metrics(self, tmp_path, capsys):
        import json

        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        rc = main([
            "cache", "--capacity", "256K",
            "--trace", str(trace), "--metrics", str(metrics),
        ])
        assert rc == 0
        doc = json.loads(trace.read_text())
        span_names = [e["name"] for e in doc["traceEvents"]]
        for expected in ("solve", "data_array", "tag_array", "optimize",
                         "prefilter", "build", "rank"):
            assert expected in span_names, expected
        assert all(e["ph"] == "X" for e in doc["traceEvents"])
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["optimizer.feasible"] > 0
        assert "eval_cache.subarray.hit_rate" in snap["derived"]

    def test_stats_and_metrics_read_one_source(self, tmp_path, capsys):
        """--stats prints the very counters --metrics writes."""
        import json

        metrics = tmp_path / "m.json"
        rc = main(["cache", "--capacity", "64K", "--stats",
                   "--metrics", str(metrics)])
        assert rc == 0
        out = capsys.readouterr().out
        printed = {}
        for line in out.splitlines():
            label, sep, rest = line.partition(" : ")
            if sep:
                printed[label.strip()] = rest
        counters = json.loads(metrics.read_text())["counters"]
        for label, name in (
            ("candidates enumerated", "optimizer.enumerated"),
            ("pre-filtered (cheap)", "optimizer.prefiltered"),
            ("built", "optimizer.built"),
            ("infeasible at build", "optimizer.infeasible_at_build"),
            ("feasible designs", "optimizer.feasible"),
        ):
            assert int(printed[label].split()[0]) == counters[name], label
        for label, name in (("subarray cache", "eval_cache.subarray"),
                            ("chain memo", "circuits.chain_memo")):
            hits, _, rest = printed[label].partition(" hits / ")
            assert int(hits) == counters[f"{name}.hits"], label
            assert int(rest.split()[0]) == counters[f"{name}.misses"], label
        assert counters["optimizer.enumerated"] > 0

    def test_metrics_report_solve_cache_hit_rate(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "m.json"
        cache = tmp_path / "solves.json"
        args = ["cache", "--capacity", "256K",
                "--cache", str(cache), "--metrics", str(metrics)]
        assert main(args) == 0
        cold = json.loads(metrics.read_text())
        assert cold["derived"]["solve_cache.hit_rate"] == 0.0
        assert main(args) == 0
        warm = json.loads(metrics.read_text())
        assert warm["derived"]["solve_cache.hit_rate"] == 1.0

    def test_validate_ddr3_takes_solver_knobs(self, tmp_path, capsys):
        import json

        trace = tmp_path / "t.json"
        rc = main(["validate-ddr3", "--jobs", "2", "--stats",
                   "--trace", str(trace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean |error|" in out
        assert "candidates enumerated" in out
        span_names = {
            e["name"]
            for e in json.loads(trace.read_text())["traceEvents"]
        }
        assert "solve_main_memory" in span_names
        assert "derive_interface" in span_names

    def test_table3_passes_knobs_through(self, tmp_path, capsys,
                                          monkeypatch):
        """table3 accepts the shared solver knobs and forwards the live
        ones; ``--jobs`` is not one (each row is one in-process solve)."""
        import json

        import repro.study.table3 as table3_module
        from repro.core.solvecache import SolveCache
        from repro.obs import Obs

        seen = {}

        def fake_solve_table3(**knobs):
            seen.update(knobs)
            return {"L1": table3_module.paper_table3()["L1"]}

        monkeypatch.setattr(
            table3_module, "solve_table3", fake_solve_table3
        )
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        rc = main([
            "table3", "--stats", "--jobs", "2",
            "--cache", str(tmp_path / "solves.json"),
            "--trace", str(trace), "--metrics", str(metrics),
        ])
        assert rc == 0
        # --stats reads the same Obs that --trace/--metrics write.
        assert "stats" not in seen
        assert isinstance(seen["solve_cache"], SolveCache)
        assert isinstance(seen["obs"], Obs)
        assert "jobs" not in seen
        assert "L1" in capsys.readouterr().out
        json.loads(trace.read_text())
        json.loads(metrics.read_text())

    def test_validate_zero_target_is_a_clean_error(self, capsys,
                                                   monkeypatch):
        """A zero published target must exit 2 with a message, not dump
        a ZeroDivisionError traceback."""
        import dataclasses

        from repro.validation import compare, targets

        bad = dataclasses.replace(targets.DDR3_TARGET, e_read=0.0)
        monkeypatch.setattr(compare, "DDR3_TARGET", bad)
        rc = main(["validate-ddr3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "zero target" in err


class TestResilienceFlags:
    def test_sweep_command(self, capsys):
        rc = main([
            "sweep", "--capacity", "256K", "--parameter", "capacity_bytes",
            "--values", "128K,256K",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "elasticity" in out
        assert "access=" in out

    def test_sweep_rejects_bad_parameter(self, capsys):
        rc = main([
            "sweep", "--capacity", "256K", "--parameter", "colour",
            "--values", "1,2",
        ])
        assert rc == 2
        assert "cannot sweep" in capsys.readouterr().err

    def test_study_command(self, capsys):
        rc = main([
            "study", "--apps", "ua.C", "--configs", "nol3,sram",
            "--instructions", "4000",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nol3" in out and "sram" in out
        assert "execution reduction" in out

    def test_study_rejects_unknown_app(self, capsys):
        rc = main(["study", "--apps", "nope", "--instructions", "1000"])
        assert rc == 2
        assert "unknown app" in capsys.readouterr().err

    def test_resume_flag_writes_and_restores_journal(
        self, tmp_path, capsys
    ):
        journal = tmp_path / "sweep.journal"
        argv = [
            "sweep", "--capacity", "256K", "--parameter", "capacity_bytes",
            "--values", "128K,256K", "--resume", str(journal),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert journal.exists()
        from repro.core.resilience import Journal

        assert len(Journal(journal)) == 2

        # Second run restores both points: same output, no growth.
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert len(Journal(journal)) == 2

    def test_on_error_skip_reports_failures(self, capsys):
        # An impossible per-task timeout is the simplest way to make
        # every parallel task fail from the CLI (two cells, so the map
        # actually goes parallel -- in-process tasks can't be preempted).
        rc = main([
            "study", "--apps", "ua.C", "--configs", "nol3,sram",
            "--instructions", "2000", "--jobs", "2",
            "--on-error", "skip", "--task-timeout", "0.001",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "task(s) failed" in err

    def test_bad_on_error_value_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "sweep", "--capacity", "256K", "--parameter", "node_nm",
                "--values", "32,45", "--on-error", "explode",
            ])
        assert "invalid choice: 'explode'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,has_flags", [
        ("cache", False), ("main-memory", False), ("validate-ddr3", False),
        ("sweep", True), ("table3", True),
    ])
    def test_fault_tolerance_flags_only_where_tasks_map(
        self, command, has_flags, capsys
    ):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out
        for flag in ("--on-error", "--retries", "--task-timeout",
                     "--resume"):
            assert (flag in usage) == has_flags, flag


class TestCacheStoreCli:
    """--cache sqlite: URLs and the cache {info,gc,migrate} subcommands."""

    def _solve(self, store, tmp_path, extra=()):
        return ["cache", "--capacity", "64K", "--cache", store, *extra]

    def test_sqlite_cache_flag_creates_and_reuses(self, tmp_path, capsys):
        url = f"sqlite:{tmp_path / 'solves.db'}"
        args = self._solve(url, tmp_path)
        assert main(args) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "solves.db").exists()
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_cache_info_json(self, tmp_path, capsys):
        path = str(tmp_path / "solves.json")
        assert main(self._solve(path, tmp_path)) == 0
        capsys.readouterr()
        assert main(["cache", "info", path]) == 0
        out = capsys.readouterr().out
        assert "backend" in out and "json" in out
        assert "records" in out

    def test_cache_info_sqlite(self, tmp_path, capsys):
        url = f"sqlite:{tmp_path / 'solves.db'}"
        assert main(self._solve(url, tmp_path)) == 0
        capsys.readouterr()
        assert main(["cache", "info", url]) == 0
        out = capsys.readouterr().out
        assert "sqlite" in out and "versions" in out

    def test_cache_gc_removes_stale_sibling(self, tmp_path, capsys):
        """Satellite bugfix: stale-version sibling redirect files are
        garbage-collectable from the CLI."""
        from repro.core.solvecache import _OLDER_VERSIONS

        path = tmp_path / "solves.json"
        stale = tmp_path / f"solves.json.{_OLDER_VERSIONS[0]}"
        stale.write_text('{"version": "%s", "records": {}}'
                         % _OLDER_VERSIONS[0])
        assert main(["cache", "gc", str(path)]) == 0
        out = capsys.readouterr().out
        assert stale.name in out
        assert not stale.exists()

    def test_cache_migrate_round_trip(self, tmp_path, capsys):
        """JSON -> sqlite -> query: the migrated store serves the solve
        (a hit, bit-identical output) without re-solving."""
        src = str(tmp_path / "solves.json")
        dst = f"sqlite:{tmp_path / 'solves.db'}"
        assert main(self._solve(src, tmp_path)) == 0
        first = capsys.readouterr().out
        assert main(["cache", "migrate", src, dst]) == 0
        report = capsys.readouterr().out
        assert "migrated" in report
        assert main(self._solve(dst, tmp_path)) == 0
        assert capsys.readouterr().out == first

    def test_cache_migrate_same_store_is_clean_error(self, tmp_path,
                                                     capsys):
        path = str(tmp_path / "solves.json")
        assert main(self._solve(path, tmp_path)) == 0
        capsys.readouterr()
        assert main(["cache", "migrate", path, path]) == 2
        assert "same store" in capsys.readouterr().err

    def test_solve_without_capacity_is_clean_error(self, capsys):
        assert main(["cache"]) == 2
        err = capsys.readouterr().err
        assert "--capacity" in err

    def test_bad_store_option_is_clean_error(self, tmp_path, capsys):
        url = f"sqlite:{tmp_path / 'solves.db'}?bogus=1"
        assert main(self._solve(url, tmp_path)) == 2
        assert "unknown store option" in capsys.readouterr().err
