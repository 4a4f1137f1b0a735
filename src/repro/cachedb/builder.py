"""Precompute a design-space grid into a cachedb artifact.

The builder rides the existing batch-solve engine end to end: grid
cells become one :func:`~repro.core.cacti.solve_batch` call, so it
inherits parallel workers (``jobs``), the shared persistent
:class:`~repro.core.solvecache.SolveCache`, sweep statistics,
observability spans, and -- through a
:class:`~repro.core.resilience.ResiliencePolicy` -- skip/retry
semantics plus JSONL journal checkpoint/resume.  An interrupted build
re-run against the same journal re-solves only the unfinished cells.

Infeasible grid cells are expected (a dense grid always contains
geometrically impossible or electrically infeasible corners), so the
default policy is ``on_error="skip"``: failures become *holes* in the
artifact, recorded with their reason, and the reader treats a hole
like an off-grid miss (fallback applies).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.cacti import solve_batch
from repro.core.config import OptimizationTarget
from repro.core.resilience import Journal, ResiliencePolicy
from repro.core.solvecache import CACHE_VERSION
from repro.cachedb.schema import (
    DB_FORMAT_VERSION,
    GridSpec,
    grid_spec_for,
    normalized_target,
    solution_to_record,
)


@dataclass(frozen=True)
class BuildReport:
    """What one build run did, for the CLI and tests."""

    path: str
    grid_points: int  #: total cells in the grid
    solved: int  #: cells with a stored design point
    holes: int  #: infeasible/failed cells recorded as holes
    restored: int  #: cells restored from the resume journal
    wall_time_s: float

    def summary(self) -> str:
        lines = [
            f"cachedb         : {self.path}",
            f"format          : {DB_FORMAT_VERSION}",
            f"model version   : {CACHE_VERSION}",
            f"grid points     : {self.grid_points}",
            f"solved          : {self.solved}",
            f"holes           : {self.holes}",
            f"restored        : {self.restored} (from resume journal)",
            f"build wall time : {self.wall_time_s:.2f} s",
        ]
        return "\n".join(lines)


def build_cachedb(
    path: str | os.PathLike,
    grid: GridSpec,
    *,
    target: OptimizationTarget | None = None,
    jobs: int | str = "auto",
    resilience: ResiliencePolicy | None = None,
    journal_path: str | os.PathLike | None = None,
    solve_cache=None,
    obs=None,
) -> BuildReport:
    """Solve every cell of ``grid`` and write the artifact to ``path``.

    ``target`` steers every solve (one target per artifact -- a cachedb
    answers queries for exactly one optimization preset).  ``jobs``
    fans the grid out over worker processes.  ``resilience`` overrides
    the default skip-and-record policy; ``journal_path`` (ignored when
    an explicit policy already carries a journal) enables
    checkpoint/resume -- re-running an interrupted build against the
    same journal restores completed cells instead of re-solving them.

    The artifact is written atomically (unique temp file +
    ``os.replace``), so a killed build never leaves a torn cachedb.
    """
    t0 = time.perf_counter()
    target = target or OptimizationTarget()
    path = Path(path)

    if resilience is None:
        resilience = ResiliencePolicy(
            on_error="skip",
            journal=(
                Journal(journal_path) if journal_path is not None else None
            ),
        )
    elif resilience.journal is None and journal_path is not None:
        import dataclasses

        resilience = dataclasses.replace(
            resilience, journal=Journal(journal_path)
        )

    holes: dict[str, str] = {}
    keys: list[str] = []
    specs: list = []
    for key, coords in grid.points():
        try:
            spec = grid_spec_for(*coords)
        except ValueError as exc:
            holes[key] = f"invalid spec: {exc}"
            continue
        keys.append(key)
        specs.append(spec)

    outcomes = solve_batch(
        specs,
        target,
        solve_cache=solve_cache,
        jobs=jobs,
        obs=obs,
        resilience=resilience,
    )

    points: dict[str, dict] = {}
    for key, solution in zip(keys, outcomes):
        if solution is None:
            continue
        points[key] = solution_to_record(solution)
    for failure in outcomes.failed:
        holes[keys[failure.index]] = (
            f"{failure.error_type}: {failure.message}"
        )

    payload = {
        "format": DB_FORMAT_VERSION,
        "model_version": CACHE_VERSION,
        "target": normalized_target(target),
        "grid": grid.as_dict(),
        "points": points,
        "holes": holes,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)

    if obs is not None:
        obs.inc("cachedb.points_built", len(points))
        obs.inc("cachedb.holes", len(holes))
    return BuildReport(
        path=os.fspath(path),
        grid_points=len(grid),
        solved=len(points),
        holes=len(holes),
        restored=outcomes.restored,
        wall_time_s=time.perf_counter() - t0,
    )
