"""Query a cachedb artifact: exact hits, interpolation, fallbacks.

The reader answers three kinds of queries:

* **on-grid** -- the coordinates name a stored grid cell; the answer is
  the stored record, bit-identical to what a live solve returns
  (``interpolated=False``, ``source="exact"``), in microseconds.
* **off-grid, in-bounds** -- capacity and/or node fall between grid
  values (associativity, block size, and technology must be grid
  members); the headline metrics are log-linearly interpolated between
  the bracketing cells -- the same geometric idiom
  :func:`repro.tech.nodes.technology` uses for intermediate ITRS nodes
  -- and the result is flagged ``interpolated=True``.
* **everything else** (out of bounds, off-grid on a discrete axis, or
  a grid hole) -- the ``fallback`` policy decides: ``"solve"`` runs a
  live solve, ``"error"`` raises :class:`CacheDBMiss`, ``"nearest"``
  snaps to the closest stored cell (log distance) and flags the result
  ``source="nearest"``.

Every query lands in exactly one of the reader's counters (``hits``,
``interpolated``, ``fallbacks``) and, when an
:class:`~repro.obs.Obs` is attached, the matching ``cachedb.*``
metrics.
"""

from __future__ import annotations

import bisect
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import MemorySpec, OptimizationTarget
from repro.core.results import Solution
from repro.core.solvecache import CACHE_VERSION, _normalize_numbers
from repro.obs import Obs
from repro.tech.cells import CellTech
from repro.cachedb.schema import (
    DB_FORMAT_VERSION,
    DB_METRICS,
    GridSpec,
    grid_key,
    grid_spec_for,
    memory_spec_to_dict,
    normalized_target,
    solution_from_record,
)

#: Off-grid fallback policies.
FALLBACKS = ("solve", "error", "nearest")


class CacheDBError(ValueError):
    """Malformed, unreadable, or incompatible cachedb artifact."""


class CacheDBMiss(CacheDBError):
    """A query the artifact cannot answer under ``fallback="error"``."""


@dataclass(frozen=True)
class CacheDBResult:
    """One answered query.

    ``metrics`` holds the headline quantities in SI units (see
    :data:`~repro.cachedb.schema.DB_METRICS` for the key names).
    ``interpolated`` is True exactly when the numbers were derived by
    interpolation rather than read from (or solved as) a real design
    point; ``source`` records how the answer was produced: ``"exact"``,
    ``"interpolated"``, ``"solve"``, or ``"nearest"``.  ``solution`` is
    the full design point when one exists (exact hits with
    ``materialize=True``, solve fallbacks, nearest snaps); interpolated
    results have none -- there is no discrete organization between two
    grid cells.
    """

    capacity_bytes: int
    block_bytes: int
    associativity: int
    node_nm: float
    cell_tech: str
    metrics: dict[str, float]
    interpolated: bool
    source: str
    solution: Solution | None = field(default=None, compare=False)

    def metric(self, name: str) -> float:
        return self.metrics[name]

    def summary(self) -> str:
        m = self.metrics
        lines = [
            f"capacity        : {self.capacity_bytes / 1024:.0f} KB",
            f"cell technology : {self.cell_tech}",
            f"node            : {self.node_nm:g} nm",
            f"assoc / block   : {self.associativity} / "
            f"{self.block_bytes} B",
            f"source          : {self.source}",
            f"interpolated    : {'yes' if self.interpolated else 'no'}",
            f"access time     : {m['access_time_s'] * 1e9:.3f} ns",
            f"random cycle    : {m['random_cycle_s'] * 1e9:.3f} ns",
            f"read energy     : {m['e_read_j'] * 1e9:.3f} nJ",
            f"write energy    : {m['e_write_j'] * 1e9:.3f} nJ",
            f"leakage power   : {m['p_leakage_w'] * 1e3:.2f} mW",
            f"refresh power   : {m['p_refresh_w'] * 1e3:.3f} mW",
            f"area            : {m['area_m2'] * 1e6:.2f} mm^2 "
            f"({m['area_efficiency'] * 100:.0f}% efficient)",
        ]
        return "\n".join(lines)


def _log_frac(lo: float, hi: float, x: float) -> float:
    """Position of ``x`` between ``lo`` and ``hi`` in log space."""
    if hi == lo:
        return 0.0
    return (math.log(x) - math.log(lo)) / (math.log(hi) - math.log(lo))


def _lerp_metric(lo_val: float, hi_val: float, frac: float) -> float:
    """Log-linear interpolation, degrading to linear at zero/negative.

    Metrics are physical positives almost everywhere, where geometric
    interpolation matches the scaling trends; ``p_refresh_w`` is
    exactly 0.0 for non-refreshing technologies, where log space is
    undefined and linear interpolation (0 between 0s) is right.  Both
    forms stay within the closed interval of their endpoints -- the
    monotonicity contract the golden tests assert -- enforced by a
    final clamp, since the exp/log round trip can otherwise overshoot
    an endpoint by one ulp.
    """
    if frac == 0.0 or lo_val == hi_val:
        return lo_val
    if frac == 1.0:
        return hi_val
    if lo_val > 0.0 and hi_val > 0.0:
        value = math.exp(
            (1.0 - frac) * math.log(lo_val) + frac * math.log(hi_val)
        )
    else:
        value = (1.0 - frac) * lo_val + frac * hi_val
    low, high = sorted((lo_val, hi_val))
    return min(max(value, low), high)


def _bracket(axis: tuple, x) -> tuple | None:
    """The grid neighbors ``(lo, hi)`` around ``x``; ``lo == hi`` on an
    exact member; None outside the axis range."""
    if not axis or x < axis[0] or x > axis[-1]:
        return None
    i = bisect.bisect_left(axis, x)
    if axis[i] == x:
        return axis[i], axis[i]
    return axis[i - 1], axis[i]


def _nearest(axis: tuple, x) -> float:
    """The log-nearest axis member (axes are positive and sorted)."""
    if x <= 0:
        return axis[0]
    return min(axis, key=lambda v: abs(math.log(v) - math.log(x)))


class CacheDB:
    """Reader over one cachedb artifact.

    Loads the JSON once; every query after that is dictionary work.
    Refuses artifacts with a foreign ``format`` outright, and -- unless
    ``check_model=False`` (used by ``cachedb info``) -- artifacts built
    by a different model version, whose numbers would silently be
    stale.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        check_model: bool = True,
        obs: Obs | None = None,
    ):
        self.path = Path(path)
        self.obs = obs
        self.hits = 0
        self.interpolated = 0
        self.fallbacks = 0
        self.misses = 0
        try:
            payload = json.loads(self.path.read_text())
        except OSError as exc:
            raise CacheDBError(f"cannot read cachedb {path}: {exc}") from exc
        except ValueError as exc:
            raise CacheDBError(
                f"cachedb {path} is not valid JSON: {exc}"
            ) from exc
        if (
            not isinstance(payload, dict)
            or payload.get("format") != DB_FORMAT_VERSION
        ):
            raise CacheDBError(
                f"cachedb {path} has format "
                f"{payload.get('format') if isinstance(payload, dict) else None!r}; "
                f"this reader expects {DB_FORMAT_VERSION!r}"
            )
        self.model_version = payload.get("model_version")
        self.stale = self.model_version != CACHE_VERSION
        if check_model and self.stale:
            raise CacheDBError(
                f"cachedb {path} was built by model "
                f"{self.model_version!r}, but this build is "
                f"{CACHE_VERSION!r}; rebuild the artifact "
                "(cachedb build) before serving from it"
            )
        self.grid = GridSpec.from_dict(payload["grid"])
        self.target_dict = payload["target"]
        self._points: dict[str, dict] = payload.get("points", {})
        self._holes: dict[str, str] = payload.get("holes", {})

    def __len__(self) -> int:
        return len(self._points)

    @property
    def target(self) -> OptimizationTarget:
        return OptimizationTarget(**self.target_dict)

    def info(self) -> dict:
        """Machine-readable artifact summary (``cachedb info``)."""
        return {
            "path": os.fspath(self.path),
            "format": DB_FORMAT_VERSION,
            "model_version": self.model_version,
            "stale": self.stale,
            "target": dict(self.target_dict),
            "grid": self.grid.as_dict(),
            "points": len(self._points),
            "holes": len(self._holes),
        }

    def stats(self) -> dict:
        """Query counters since this reader was opened."""
        return {
            "hits": self.hits,
            "interpolated": self.interpolated,
            "fallbacks": self.fallbacks,
            "misses": self.misses,
        }

    # ------------------------------------------------------------------ #
    # Exact lookup (the CactiD / solve() consult path)

    def lookup_exact(
        self,
        spec: MemorySpec,
        target: OptimizationTarget | None = None,
        obs: Obs | None = None,
    ) -> Solution | None:
        """The stored Solution for exactly this solve request, or None.

        A hit requires the artifact's optimization target to match,
        the coordinates to name a stored cell, and the *full* stored
        spec to equal the request (so a spec using any off-grid knob
        -- banks, ECC, sleep transistors, sequential access -- can
        never be served a subtly different design).  Hits are
        bit-identical to a live solve.
        """
        obs = obs or self.obs
        if normalized_target(target) == self.target_dict:
            key = grid_key(
                spec.cell_tech.value,
                spec.node_nm,
                spec.capacity_bytes,
                spec.block_bytes,
                spec.associativity or 0,
            )
            record = self._points.get(key)
            if record is not None and _normalize_numbers(
                memory_spec_to_dict(spec)
            ) == _normalize_numbers(record["spec"]):
                self.hits += 1
                if obs is not None:
                    obs.inc("cachedb.hits")
                return solution_from_record(record)
        self.misses += 1
        if obs is not None:
            obs.inc("cachedb.misses")
        return None

    # ------------------------------------------------------------------ #
    # Full query (exact -> interpolated -> fallback)

    def query(
        self,
        capacity_bytes: int,
        *,
        associativity: int = 8,
        block_bytes: int = 64,
        node_nm: float = 32.0,
        cell_tech: str | CellTech = "sram",
        fallback: str = "solve",
        materialize: bool = False,
    ) -> CacheDBResult:
        """Answer one design-space query from the artifact.

        ``fallback`` governs queries the grid cannot answer (see the
        module docstring); ``materialize`` additionally reconstructs
        the full :class:`Solution` on exact hits (a few extra tens of
        microseconds; metrics-only answers skip it).
        """
        if fallback not in FALLBACKS:
            raise CacheDBError(
                f"unknown fallback {fallback!r}; expected one of {FALLBACKS}"
            )
        tech = CellTech(cell_tech).value
        node_nm = float(node_nm)
        grid = self.grid
        assoc_key = associativity or 0

        reason = None
        if tech not in grid.technologies:
            reason = f"technology {tech!r} not in grid {grid.technologies}"
        elif assoc_key not in grid.associativities:
            reason = (
                f"associativity {assoc_key} not in grid "
                f"{grid.associativities}"
            )
        elif block_bytes not in grid.block_bytes:
            reason = (
                f"block size {block_bytes} not in grid {grid.block_bytes}"
            )
        else:
            cap_pair = _bracket(grid.capacities_bytes, capacity_bytes)
            node_pair = _bracket(grid.nodes_nm, node_nm)
            if cap_pair is None:
                reason = (
                    f"capacity {capacity_bytes} outside grid range "
                    f"{grid.capacities_bytes[0]}-{grid.capacities_bytes[-1]}"
                )
            elif node_pair is None:
                reason = (
                    f"node {node_nm:g} nm outside grid range "
                    f"{grid.nodes_nm[0]:g}-{grid.nodes_nm[-1]:g} nm"
                )
            else:
                answer = self._grid_answer(
                    tech,
                    node_nm,
                    node_pair,
                    capacity_bytes,
                    cap_pair,
                    block_bytes,
                    assoc_key,
                    materialize,
                )
                if isinstance(answer, CacheDBResult):
                    return answer
                reason = answer  # a hole's key, reported below

        return self._fall_back(
            reason,
            fallback,
            tech,
            node_nm,
            capacity_bytes,
            block_bytes,
            assoc_key,
        )

    def _grid_answer(
        self,
        tech,
        node_nm,
        node_pair,
        capacity,
        cap_pair,
        block,
        assoc,
        materialize,
    ):
        """An exact or interpolated result, or a miss-reason string."""
        cap_lo, cap_hi = cap_pair
        node_lo, node_hi = node_pair
        corners = {}
        for cap in {cap_lo, cap_hi}:
            for node in {node_lo, node_hi}:
                key = grid_key(tech, node, cap, block, assoc)
                record = self._points.get(key)
                if record is None:
                    return (
                        f"grid hole at {key}"
                        + (
                            f" ({self._holes[key]})"
                            if key in self._holes
                            else ""
                        )
                    )
                corners[(cap, node)] = record

        if cap_lo == cap_hi and node_lo == node_hi:
            record = corners[(cap_lo, node_lo)]
            self.hits += 1
            if self.obs is not None:
                self.obs.inc("cachedb.hits")
            return CacheDBResult(
                capacity_bytes=capacity,
                block_bytes=block,
                associativity=assoc,
                node_nm=node_nm,
                cell_tech=tech,
                metrics=dict(record["metrics"]),
                interpolated=False,
                source="exact",
                solution=(
                    solution_from_record(record) if materialize else None
                ),
            )

        cap_frac = _log_frac(cap_lo, cap_hi, capacity)
        node_frac = _log_frac(node_lo, node_hi, node_nm)
        metrics = {}
        for name in DB_METRICS:
            at_node = []
            for node in (node_lo, node_hi):
                at_node.append(
                    _lerp_metric(
                        corners[(cap_lo, node)]["metrics"][name],
                        corners[(cap_hi, node)]["metrics"][name],
                        cap_frac,
                    )
                )
            metrics[name] = _lerp_metric(at_node[0], at_node[1], node_frac)
        self.interpolated += 1
        if self.obs is not None:
            self.obs.inc("cachedb.interpolated")
        return CacheDBResult(
            capacity_bytes=capacity,
            block_bytes=block,
            associativity=assoc,
            node_nm=node_nm,
            cell_tech=tech,
            metrics=metrics,
            interpolated=True,
            source="interpolated",
        )

    def _fall_back(
        self, reason, fallback, tech, node_nm, capacity, block, assoc
    ) -> CacheDBResult:
        if fallback == "error":
            raise CacheDBMiss(
                f"cachedb cannot answer the query ({reason}) and "
                "fallback='error'"
            )
        self.fallbacks += 1
        if self.obs is not None:
            self.obs.inc("cachedb.fallbacks")

        if fallback == "nearest":
            grid = self.grid
            if tech not in grid.technologies:
                raise CacheDBMiss(
                    f"no nearest grid point: technology {tech!r} is not "
                    f"in the grid {grid.technologies}"
                )
            snapped = (
                tech,
                _nearest(grid.nodes_nm, node_nm),
                int(_nearest(grid.capacities_bytes, capacity)),
                int(_nearest(grid.block_bytes, block)),
                (
                    assoc
                    if assoc in grid.associativities
                    else min(
                        grid.associativities,
                        key=lambda a: abs(a - assoc),
                    )
                ),
            )
            record = self._points.get(grid_key(*snapped))
            if record is None:
                raise CacheDBMiss(
                    f"no nearest grid point: {grid_key(*snapped)} is a "
                    "hole"
                )
            return CacheDBResult(
                capacity_bytes=snapped[2],
                block_bytes=snapped[3],
                associativity=snapped[4],
                node_nm=snapped[1],
                cell_tech=tech,
                metrics=dict(record["metrics"]),
                interpolated=False,
                source="nearest",
                solution=solution_from_record(record),
            )

        # fallback == "solve": a live solve of exactly what was asked.
        from repro.core.cacti import solve as _solve
        from repro.cachedb.schema import DB_METRICS as _metrics

        spec = grid_spec_for(tech, node_nm, capacity, block, assoc)
        solution = _solve(spec, self.target, obs=self.obs)
        return CacheDBResult(
            capacity_bytes=capacity,
            block_bytes=block,
            associativity=assoc,
            node_nm=node_nm,
            cell_tech=tech,
            metrics={
                name: extract(solution)
                for name, extract in _metrics.items()
            },
            interpolated=False,
            source="solve",
            solution=solution,
        )


#: Per-process readers keyed by path, so study/sweep worker processes
#: parse each artifact once, not once per task (as workers open each
#: solve store once).
_OPEN_DBS: dict[str, CacheDB] = {}


def open_cachedb(path: str | os.PathLike) -> CacheDB:
    """A memoized :class:`CacheDB` for ``path`` (one parse per process)."""
    key = os.fspath(path)
    db = _OPEN_DBS.get(key)
    if db is None:
        db = _OPEN_DBS[key] = CacheDB(key)
    return db
