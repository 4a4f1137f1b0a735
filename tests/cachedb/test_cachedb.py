"""Unit tests for the precomputed design-space database."""

import json

import pytest

from repro.cachedb import (
    CacheDB,
    CacheDBError,
    CacheDBMiss,
    GridSpec,
    build_cachedb,
    grid_key,
    grid_spec_for,
)
from repro.cachedb.schema import DB_METRICS
from repro.cli import main
from repro.core.cacti import CactiD, solve
from repro.core.config import OptimizationTarget
from repro.core.solvecache import CACHE_VERSION, metrics_to_dict
from repro.obs import Obs
from repro.tech.registry import registered_names

CAPS = (64 << 10, 256 << 10)
NODES = (32.0, 45.0)


@pytest.fixture(scope="module")
def db_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cachedb") / "db.json"
    grid = GridSpec(
        capacities_bytes=CAPS, nodes_nm=NODES, technologies=("sram",)
    )
    report = build_cachedb(path, grid, jobs=1)
    assert report.solved == len(grid) == 4
    return path


@pytest.fixture()
def db(db_path):
    return CacheDB(db_path)


class TestGridSpec:
    def test_axes_deduped_and_sorted(self):
        grid = GridSpec(
            capacities_bytes=(1 << 20, 1 << 16, 1 << 20),
            nodes_nm=(45, 32.0, 45.0),
            technologies=("sram",),
        )
        assert grid.capacities_bytes == (1 << 16, 1 << 20)
        assert grid.nodes_nm == (32.0, 45.0)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one capacity"):
            GridSpec(capacities_bytes=())

    def test_node_outside_itrs_range_rejected(self):
        with pytest.raises(ValueError, match="outside modeled ITRS"):
            GridSpec(capacities_bytes=(1 << 16,), nodes_nm=(22.0,))

    def test_unknown_technology_rejected_with_registered_list(self):
        with pytest.raises(ValueError, match="sram"):
            GridSpec(
                capacities_bytes=(1 << 16,), technologies=("no-such-tech",)
            )

    def test_default_technologies_is_whole_registry(self):
        grid = GridSpec(capacities_bytes=(1 << 16,))
        assert grid.technologies == registered_names()

    def test_len_is_axis_product(self):
        grid = GridSpec(
            capacities_bytes=CAPS,
            nodes_nm=NODES,
            associativities=(4, 8),
            technologies=("sram", "stt-ram"),
        )
        assert len(grid) == 2 * 2 * 2 * 2
        assert len(list(grid.points())) == len(grid)


class TestBuilder:
    def test_infeasible_cells_become_holes(self, tmp_path):
        # 256 B cannot hold one 8-way set of 64 B blocks.
        grid = GridSpec(
            capacities_bytes=(256, 64 << 10), technologies=("sram",)
        )
        report = build_cachedb(tmp_path / "db.json", grid, jobs=1)
        assert report.solved == 1 and report.holes == 1
        db = CacheDB(tmp_path / "db.json")
        with pytest.raises(CacheDBMiss, match="hole"):
            db.query(256, fallback="error")

    def test_artifact_is_versioned(self, db_path):
        payload = json.loads(db_path.read_text())
        assert payload["format"] == "repro-cachedb-v1"
        assert payload["model_version"] == CACHE_VERSION

    def test_resumed_build_restores_solved_cells(self, tmp_path):
        grid = GridSpec(capacities_bytes=CAPS, technologies=("sram",))
        journal = tmp_path / "build.journal"
        first = build_cachedb(
            tmp_path / "db.json", grid, jobs=1, journal_path=journal
        )
        assert first.restored == 0 and first.solved == 2
        again = build_cachedb(
            tmp_path / "db.json", grid, jobs=1, journal_path=journal
        )
        assert again.restored == 2 and again.solved == 2


class TestReader:
    def test_exact_hit_counts_and_flags(self, db):
        result = db.query(CAPS[0], node_nm=32.0)
        assert result.source == "exact" and not result.interpolated
        assert db.stats()["hits"] == 1 and len(db) == 4

    def test_exact_hit_metrics_match_stored_record(self, db, db_path):
        payload = json.loads(db_path.read_text())
        key = grid_key("sram", 32.0, CAPS[0], 64, 8)
        assert (
            db.query(CAPS[0], node_nm=32.0).metrics
            == payload["points"][key]["metrics"]
        )

    def test_interpolated_query_is_flagged(self, db):
        result = db.query(128 << 10, node_nm=38.0)
        assert result.interpolated and result.source == "interpolated"
        assert result.solution is None
        assert db.stats()["interpolated"] == 1

    def test_fallback_error_raises_out_of_range(self, db):
        with pytest.raises(CacheDBMiss, match="outside grid range"):
            db.query(1 << 30, fallback="error")

    def test_fallback_nearest_snaps_to_grid(self, db):
        result = db.query(1 << 30, fallback="nearest")
        assert result.source == "nearest"
        assert result.capacity_bytes == CAPS[-1]
        assert db.stats()["fallbacks"] == 1

    def test_fallback_solve_matches_live_solve(self, db):
        result = db.query(32 << 10, fallback="solve")
        assert result.source == "solve" and not result.interpolated
        live = solve(grid_spec_for("sram", 32.0, 32 << 10, 64, 8))
        assert metrics_to_dict(result.solution.data) == metrics_to_dict(
            live.data
        )
        assert result.metrics == {
            name: extract(live) for name, extract in DB_METRICS.items()
        }

    def test_unknown_fallback_rejected(self, db):
        with pytest.raises(CacheDBError, match="unknown fallback"):
            db.query(CAPS[0], fallback="guess")

    def test_off_grid_discrete_axis_falls_back(self, db):
        with pytest.raises(CacheDBMiss, match="associativity"):
            db.query(CAPS[0], associativity=4, fallback="error")

    def test_foreign_format_refused(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(CacheDBError, match="format"):
            CacheDB(path)

    def test_stale_model_version_refused_unless_inspecting(
        self, tmp_path, db_path
    ):
        payload = json.loads(db_path.read_text())
        payload["model_version"] = "repro-solve-cache-v99"
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(payload))
        with pytest.raises(CacheDBError, match="rebuild"):
            CacheDB(stale)
        info = CacheDB(stale, check_model=False).info()
        assert info["stale"] and info["points"] == 4


class TestSolveIntegration:
    def test_lookup_exact_counts_obs_metrics(self, db):
        obs = Obs()
        spec = grid_spec_for("sram", 32.0, CAPS[0], 64, 8)
        assert db.lookup_exact(spec, obs=obs) is not None
        off_spec = grid_spec_for("sram", 32.0, 32 << 10, 64, 8)
        assert db.lookup_exact(off_spec, obs=obs) is None
        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"]["cachedb.hits"] == 1
        assert snapshot["counters"]["cachedb.misses"] == 1

    def test_lookup_exact_misses_on_different_target(self, db):
        from repro.core.config import DENSITY_OPTIMIZED

        spec = grid_spec_for("sram", 32.0, CAPS[0], 64, 8)
        assert db.lookup_exact(spec, DENSITY_OPTIMIZED) is None

    def test_lookup_exact_misses_on_off_grid_knobs(self, db):
        import dataclasses

        spec = dataclasses.replace(
            grid_spec_for("sram", 32.0, CAPS[0], 64, 8), ecc=True
        )
        assert db.lookup_exact(spec) is None

    def test_solve_served_from_cachedb_bit_identically(self, db):
        spec = grid_spec_for("sram", 32.0, CAPS[0], 64, 8)
        live = solve(spec)
        before = db.hits
        served = solve(spec, cachedb=db)
        assert db.hits == before + 1
        assert metrics_to_dict(served.data) == metrics_to_dict(live.data)
        assert metrics_to_dict(served.tag) == metrics_to_dict(live.tag)

    def test_cachedb_hit_is_traced_inside_the_solve_span(self, db):
        spec = grid_spec_for("sram", 32.0, CAPS[0], 64, 8)
        untraced = solve(spec, cachedb=db)
        obs = Obs()
        served = solve(spec, cachedb=db, obs=obs)
        assert served == untraced
        solve_spans = [s for s in obs.tracer.spans if s.name == "solve"]
        assert len(solve_spans) == 1
        assert solve_spans[0].attrs["source"] == "cachedb"
        # A hit never reaches the optimizer: no array sweeps traced.
        assert [s.name for s in obs.tracer.spans] == ["solve"]
        assert obs.metrics.snapshot()["counters"]["cachedb.hits"] == 1

    def test_cactid_accepts_cachedb_path(self, db_path):
        facade = CactiD(cachedb=db_path)
        spec = grid_spec_for("sram", 32.0, CAPS[0], 64, 8)
        solution = facade.solve(spec, OptimizationTarget())
        assert facade.cachedb.hits == 1
        assert solution.spec == spec


class TestCli:
    def test_build_query_info_round_trip(self, tmp_path, capsys):
        path = tmp_path / "db.json"
        assert main([
            "cachedb", "build", str(path),
            "--capacities", "64K,128K", "--techs", "sram",
            "--jobs", "1",
        ]) == 0
        assert "solved          : 2" in capsys.readouterr().out

        assert main([
            "cachedb", "query", str(path), "--capacity", "64K",
        ]) == 0
        assert "source          : exact" in capsys.readouterr().out

        assert main([
            "cachedb", "query", str(path), "--capacity", "96K",
            "--fallback", "error",
        ]) == 0
        assert "interpolated    : yes" in capsys.readouterr().out

        assert main(["cachedb", "info", str(path)]) == 0
        assert "repro-cachedb-v1" in capsys.readouterr().out

    def test_query_fallback_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "db.json"
        main([
            "cachedb", "build", str(path),
            "--capacities", "64K", "--techs", "sram", "--jobs", "1",
        ])
        capsys.readouterr()
        assert main([
            "cachedb", "query", str(path), "--capacity", "1G",
            "--fallback", "error",
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cache_subcommand_consults_cachedb(
        self, tmp_path, capsys, monkeypatch
    ):
        path = tmp_path / "db.json"
        main([
            "cachedb", "build", str(path),
            "--capacities", "64K", "--techs", "sram", "--jobs", "1",
        ])
        capsys.readouterr()

        def boom(*args, **kwargs):  # the solver must not run on a hit
            raise AssertionError("solver invoked despite cachedb hit")

        from repro.core import cacti

        monkeypatch.setattr(cacti, "optimize", boom)
        assert main([
            "cache", "--capacity", "64K", "--cachedb", str(path),
        ]) == 0
        assert "64 KB" in capsys.readouterr().out
