"""Solution optimization (paper section 2.4).

CACTI 5 changed the optimization flow: rather than a single fixed figure
of merit, the tool first collects *all* feasible organizations, keeps the
ones whose area is within a user-supplied percentage of the most
area-efficient solution (max area constraint), narrows to those whose
access time is within a percentage of the fastest remaining solution (max
access time constraint), and finally ranks that subset by a normalized,
weighted combination of dynamic energy, leakage power, random cycle time,
and multisubbank interleave cycle time.

The sweep has a fast path that changes none of the numbers:

* a cheap structural pre-filter (:func:`~repro.array.organization.
  prefilter_grid`) rejects most candidate tuples from spec arithmetic
  alone, before any circuit object is built;
* the vectorized kernels (:mod:`repro.array.kernels`) evaluate and rank
  every survivor as array arithmetic, and only the winner is built as
  a full object;
* an :class:`~repro.array.organization.EvalCache` shares subarray and
  H-tree designs across candidates (and, via the
  :class:`~repro.core.cacti.CactiD` facade, across solves);
* an optional persistent :class:`~repro.core.solvecache.SolveCache`
  short-circuits whole repeated solves from disk.

:class:`SweepStats` counts what each layer did so speedups are
measurable.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.array.organization import (
    ArrayMetrics,
    ArraySpec,
    EvalCache,
    InfeasibleOrganization,
    InfeasibleSubarray,
    build_organization,
    enumerate_orgs,
    org_grid_size,
    prefilter_grid,
    prefilter_org,
)
from repro.core.config import OptimizationTarget
from repro.core.solvecache import account_store as _account_store
from repro.obs import Obs, maybe_span
from repro.obs import phase as obs_phase
from repro.tech.nodes import Technology


class NoFeasibleSolution(RuntimeError):
    """No partitioning tuple could realize the requested array."""


@dataclass
class SweepStats:
    """Observability counters for one or more optimizer sweeps.

    Accumulates in place: pass the same instance to several solves (as
    the :class:`~repro.core.cacti.CactiD` facade does) to get totals.
    """

    enumerated: int = 0  #: candidate tuples enumerated
    prefiltered: int = 0  #: rejected by the cheap structural pre-filter
    built: int = 0  #: full circuit constructions attempted
    infeasible_at_build: int = 0  #: rejected by electrical checks at build
    feasible: int = 0  #: designs that survived to ranking
    subarray_hits: int = 0  #: subarray designs reused from the eval cache
    subarray_misses: int = 0
    htree_hits: int = 0  #: H-tree designs reused from the eval cache
    htree_misses: int = 0
    solve_cache_hits: int = 0  #: whole solves served from the disk cache
    solve_cache_misses: int = 0
    store_evictions: int = 0  #: records LRU-evicted by a bounded store
    store_flush_writes: int = 0  #: store saves actually written to disk
    retries: int = 0  #: task attempts re-run under a resilience policy
    pool_rebuilds: int = 0  #: worker pools torn down and rebuilt
    timeouts: int = 0  #: tasks cancelled for exceeding their wall clock
    tasks_failed: int = 0  #: tasks that failed terminally (skip/retry)
    wall_time_s: float = 0.0  #: total optimizer wall time
    worker_time_s: float = 0.0  #: wall time summed across worker processes
    workers_absorbed: int = 0  #: worker stats payloads merged in
    phase_times: dict = field(default_factory=dict)  #: named phase timers
    #: Phase timers absorbed from worker payloads.  Kept separate from
    #: ``phase_times`` so the parent's phase report stays wall-clock
    #: true: at jobs=N a batch runs its workers concurrently, and
    #: summing their per-phase CPU into the parent's timers used to
    #: report build=1.73 s against 0.66 s of actual wall time.
    worker_phase_times: dict = field(default_factory=dict)
    _eval_marks: dict = field(default_factory=dict, repr=False)

    #: Counter fields summable across worker payloads.
    _ABSORBABLE = (
        "enumerated",
        "prefiltered",
        "built",
        "infeasible_at_build",
        "feasible",
        "subarray_hits",
        "subarray_misses",
        "htree_hits",
        "htree_misses",
        "solve_cache_hits",
        "solve_cache_misses",
        "store_evictions",
        "store_flush_writes",
        "retries",
        "pool_rebuilds",
        "timeouts",
        "tasks_failed",
    )

    @property
    def prefilter_rate(self) -> float:
        return self.prefiltered / self.enumerated if self.enumerated else 0.0

    @property
    def subarray_hit_rate(self) -> float:
        total = self.subarray_hits + self.subarray_misses
        return self.subarray_hits / total if total else 0.0

    @property
    def htree_hit_rate(self) -> float:
        total = self.htree_hits + self.htree_misses
        return self.htree_hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "enumerated": self.enumerated,
            "prefiltered": self.prefiltered,
            "built": self.built,
            "infeasible_at_build": self.infeasible_at_build,
            "feasible": self.feasible,
            "subarray_hits": self.subarray_hits,
            "subarray_misses": self.subarray_misses,
            "htree_hits": self.htree_hits,
            "htree_misses": self.htree_misses,
            "solve_cache_hits": self.solve_cache_hits,
            "solve_cache_misses": self.solve_cache_misses,
            "store_evictions": self.store_evictions,
            "store_flush_writes": self.store_flush_writes,
            "retries": self.retries,
            "pool_rebuilds": self.pool_rebuilds,
            "timeouts": self.timeouts,
            "tasks_failed": self.tasks_failed,
            "prefilter_rate": self.prefilter_rate,
            "subarray_hit_rate": self.subarray_hit_rate,
            "htree_hit_rate": self.htree_hit_rate,
            "wall_time_s": self.wall_time_s,
            "worker_time_s": self.worker_time_s,
            "workers_absorbed": self.workers_absorbed,
            "phase_times": dict(self.phase_times),
            "worker_phase_times": dict(self.worker_phase_times),
        }

    def summary(self) -> str:
        """Human-readable multi-line report, printable from the CLI."""
        lines = [
            f"candidates enumerated : {self.enumerated}",
            f"pre-filtered (cheap)  : {self.prefiltered} "
            f"({self.prefilter_rate * 100:.1f}%)",
            f"built                 : {self.built}",
            f"infeasible at build   : {self.infeasible_at_build}",
            f"feasible designs      : {self.feasible}",
            f"subarray cache        : {self.subarray_hits} hits / "
            f"{self.subarray_misses} misses "
            f"({self.subarray_hit_rate * 100:.1f}%)",
            f"h-tree cache          : {self.htree_hits} hits / "
            f"{self.htree_misses} misses "
            f"({self.htree_hit_rate * 100:.1f}%)",
            f"solve cache           : {self.solve_cache_hits} hits / "
            f"{self.solve_cache_misses} misses",
            f"wall time             : {self.wall_time_s * 1e3:.1f} ms",
        ]
        if self.store_flush_writes or self.store_evictions:
            lines.insert(
                -1,
                f"solve store           : {self.store_flush_writes} flush "
                f"writes, {self.store_evictions} evictions",
            )
        if self.retries or self.timeouts or self.tasks_failed \
                or self.pool_rebuilds:
            lines.append(
                f"resilience            : {self.retries} retries, "
                f"{self.timeouts} timeouts, {self.tasks_failed} failed, "
                f"{self.pool_rebuilds} pool rebuilds"
            )
        if self.workers_absorbed:
            lines.append(
                f"workers               : {self.workers_absorbed} payloads, "
                f"{self.worker_time_s * 1e3:.1f} ms worker wall time"
            )
        for name, seconds in self.phase_times.items():
            lines.append(f"phase {name:<16}: {seconds * 1e3:.1f} ms")
        for name, seconds in self.worker_phase_times.items():
            lines.append(
                f"worker phase {name:<9}: {seconds * 1e3:.1f} ms (CPU)"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------ #

    def add_phase_time(self, name: str, seconds: float) -> None:
        """Accumulate wall time into the named phase timer."""
        self.phase_times[name] = self.phase_times.get(name, 0.0) + seconds

    def add_worker_phase_time(self, name: str, seconds: float) -> None:
        """Accumulate worker CPU time into the named worker phase timer."""
        self.worker_phase_times[name] = (
            self.worker_phase_times.get(name, 0.0) + seconds
        )

    @contextmanager
    def phase(self, name: str):
        """Context manager timing one phase of a sweep by wall clock."""
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.add_phase_time(name, time.perf_counter() - t0)

    def absorb_worker(self, payload: dict) -> None:
        """Merge a stats payload shipped back from a worker process.

        Accepts either a counter-delta dict or a full ``as_dict()``
        snapshot of a worker-side SweepStats (from batch solves).
        Unknown keys -- derived rates, pids -- are ignored; worker wall
        time lands in ``worker_time_s``, never ``wall_time_s``, and
        worker phase timers land in ``worker_phase_times``, never
        ``phase_times``, so the parent's own wall-clock measurements
        stay meaningful (concurrent workers sum to more CPU than wall
        time).
        """
        for name in self._ABSORBABLE:
            value = payload.get(name, 0)
            if value:
                setattr(self, name, getattr(self, name) + value)
        self.worker_time_s += payload.get(
            "worker_wall_time_s", payload.get("wall_time_s", 0.0)
        )
        self.worker_time_s += payload.get("worker_time_s", 0.0)
        for name, seconds in (payload.get("phase_times") or {}).items():
            self.add_worker_phase_time(name, seconds)
        # A worker that itself absorbed sub-workers forwards their
        # phase CPU under this key; it stays worker-side here too.
        for name, seconds in (
            payload.get("worker_phase_times") or {}
        ).items():
            self.add_worker_phase_time(name, seconds)
        self.workers_absorbed += 1 + payload.get("workers_absorbed", 0)

    def _mark_eval_cache(self, cache: EvalCache) -> None:
        """Remember the cache's counters so deltas can be accumulated."""
        self._eval_marks[id(cache)] = (
            cache.subarray_hits,
            cache.subarray_misses,
            cache.htree_hits,
            cache.htree_misses,
        )

    def _absorb_eval_cache(self, cache: EvalCache) -> None:
        """Add the cache's counter deltas since the matching mark."""
        sh0, sm0, hh0, hm0 = self._eval_marks.pop(id(cache), (0, 0, 0, 0))
        self.subarray_hits += cache.subarray_hits - sh0
        self.subarray_misses += cache.subarray_misses - sm0
        self.htree_hits += cache.htree_hits - hh0
        self.htree_misses += cache.htree_misses - hm0


def _eval_cache_counts(cache: EvalCache) -> tuple[int, int, int, int]:
    return (
        cache.subarray_hits,
        cache.subarray_misses,
        cache.htree_hits,
        cache.htree_misses,
    )


_EVAL_CACHE_METRICS = (
    "eval_cache.subarray.hits",
    "eval_cache.subarray.misses",
    "eval_cache.htree.hits",
    "eval_cache.htree.misses",
)


def _account(
    stats: SweepStats | None,
    obs: Obs | None,
    cache: EvalCache | None,
    eval_before: tuple | None,
    **counts: int,
) -> None:
    """Record one sweep's candidate counts and eval-cache deltas.

    ``counts`` are :class:`SweepStats` counter names, mirrored into
    ``obs`` as ``optimizer.<name>``; the cache deltas are taken against
    ``eval_before`` (and the mark ``stats`` holds for ``cache``).
    """
    for name, n in counts.items():
        if stats is not None:
            setattr(stats, name, getattr(stats, name) + n)
        if obs is not None:
            obs.inc(f"optimizer.{name}", n)
    if cache is None:
        return
    if stats is not None:
        stats._absorb_eval_cache(cache)
    if obs is not None:
        now = _eval_cache_counts(cache)
        for name, after, before in zip(_EVAL_CACHE_METRICS, now, eval_before):
            obs.inc(name, after - before)


def _no_feasible(spec: ArraySpec) -> NoFeasibleSolution:
    return NoFeasibleSolution(
        f"no feasible organization for {spec.capacity_bits} bits of "
        f"{spec.cell_tech.value} in {spec.nbanks} bank(s)"
    )


def feasible_designs(
    tech: Technology,
    spec: ArraySpec,
    orgs: Iterable | None = None,
    *,
    cache: EvalCache | None = None,
    stats: SweepStats | None = None,
    prefilter: bool = True,
    obs: Obs | None = None,
) -> list[ArrayMetrics]:
    """Build every feasible partitioning of ``spec`` as a full object.

    The scalar reference of the optimizer's vectorized kernels: one
    serial :func:`~repro.array.organization.build_organization` per
    :func:`~repro.array.organization.prefilter_grid` survivor, in
    enumeration order.  :func:`optimize` itself never calls it; the
    kernel tests and the examples do.

    ``orgs`` sweeps the given tuples instead of the full grid, and
    ``prefilter=False`` skips the structural pre-filter so every tuple
    is fully constructed (the naive path, kept for equivalence
    testing); both enumerate through
    :func:`~repro.array.organization.enumerate_orgs` and
    :func:`~repro.array.organization.prefilter_org`.  ``cache`` shares
    circuit designs across candidates; ``obs`` records prefilter/build
    spans and candidate/cache metrics.  None of them affects the
    returned metrics.
    """
    if stats is not None and cache is not None:
        stats._mark_eval_cache(cache)
    eval_before = _eval_cache_counts(cache) if cache is not None else None
    with obs_phase("prefilter", obs, stats):
        if orgs is None and prefilter:
            enumerated = org_grid_size(spec)
            candidates = prefilter_grid(spec)
        else:
            orgs = list(orgs if orgs is not None else enumerate_orgs(spec))
            enumerated = len(orgs)
            if prefilter:
                candidates = [
                    (org, geometry)
                    for org in orgs
                    if (geometry := prefilter_org(spec, org)) is not None
                ]
            else:
                candidates = [(org, None) for org in orgs]
    designs = []
    infeasible = 0
    with obs_phase("build", obs, stats, candidates=len(candidates)):
        for org, geometry in candidates:
            try:
                designs.append(
                    build_organization(
                        tech, spec, org, cache=cache, geometry=geometry
                    )
                )
            except (InfeasibleOrganization, InfeasibleSubarray):
                infeasible += 1
    _account(
        stats, obs, cache, eval_before,
        enumerated=enumerated,
        prefiltered=enumerated - len(candidates),
        built=len(candidates),
        infeasible_at_build=infeasible,
        feasible=len(designs),
    )
    if not designs:
        raise _no_feasible(spec)
    return designs


def filter_constraints(
    designs: list[ArrayMetrics], target: OptimizationTarget
) -> list[ArrayMetrics]:
    """Apply the staged max-area then max-access-time filters."""
    if not designs:
        raise NoFeasibleSolution(
            "no designs to filter: the feasible set is empty"
        )
    best_area = min(d.area for d in designs)
    within_area = [
        d for d in designs
        if d.area <= best_area * (1.0 + target.max_area_fraction)
    ]
    best_time = min(d.t_access for d in within_area)
    return [
        d for d in within_area
        if d.t_access <= best_time * (1.0 + target.max_acctime_fraction)
    ]


def rank_floors(
    designs: list[ArrayMetrics],
) -> tuple[float, float, float, float]:
    """Normalization floors for :func:`rank`, in one pass over the set.

    Returns ``(min_dynamic, min_leakage, min_cycle, min_interleave)``
    with non-positive minima clamped to ``1e-30`` (the paper's guard
    against degenerate zero-energy normalizers).  :func:`rank` used to
    re-derive these with four separate scans on every call; computing
    them once here lets callers that rank the same constrained set
    repeatedly (or that already hold the metric arrays) reuse them.
    """
    if not designs:
        raise NoFeasibleSolution(
            "no designs to rank: the constrained set is empty"
        )
    min_dyn = min_leak = min_cycle = min_interleave = float("inf")
    for d in designs:
        if d.e_read_access < min_dyn:
            min_dyn = d.e_read_access
        leak = d.p_leakage + d.p_refresh
        if leak < min_leak:
            min_leak = leak
        if d.t_random_cycle < min_cycle:
            min_cycle = d.t_random_cycle
        if d.t_interleave < min_interleave:
            min_interleave = d.t_interleave

    def clamp(value: float) -> float:
        return value if value > 0.0 else 1e-30

    return (
        clamp(min_dyn),
        clamp(min_leak),
        clamp(min_cycle),
        clamp(min_interleave),
    )


def rank(
    designs: list[ArrayMetrics],
    target: OptimizationTarget,
    *,
    floors: tuple[float, float, float, float] | None = None,
) -> list[ArrayMetrics]:
    """Sort candidates by the normalized weighted objective, best first.

    ``floors`` optionally supplies precomputed :func:`rank_floors` for
    this design set, skipping the normalization pass.
    """
    if not designs:
        raise NoFeasibleSolution(
            "no designs to rank: the constrained set is empty"
        )
    if floors is None:
        floors = rank_floors(designs)
    min_dyn, min_leak, min_cycle, min_interleave = floors

    def score(d: ArrayMetrics) -> float:
        return (
            target.weight_dynamic * d.e_read_access / min_dyn
            + target.weight_leakage * (d.p_leakage + d.p_refresh) / min_leak
            + target.weight_cycle * d.t_random_cycle / min_cycle
            + target.weight_interleave * d.t_interleave / min_interleave
        )

    return sorted(designs, key=score)


def _ranked_designs(
    tech: Technology,
    spec: ArraySpec,
    target: OptimizationTarget,
    *,
    eval_cache: EvalCache,
    stats: SweepStats | None,
    obs: Obs | None,
    limit: int | None = None,
) -> list[ArrayMetrics]:
    """Prefilter → evaluate → constrain → rank, behind :func:`optimize`
    and :func:`pareto_solutions`.

    Runs :func:`~repro.array.kernels.survivor_batch`,
    :func:`~repro.array.kernels.evaluate_batch` and
    :func:`~repro.array.kernels.rank_batch` over the whole survivor
    batch and constructs full :class:`ArrayMetrics` objects only for
    the top ``limit`` ranked candidates (all of them when ``limit`` is
    None).  Counter accounting matches the scalar
    :func:`feasible_designs`: eval-cache deltas are absorbed *before*
    winner materialization, so ``subarray_hits + subarray_misses ==
    built`` holds; H-tree cache counters advance only for the
    materialized winners (the batch replaces per-candidate tree objects
    with closed-form arithmetic).
    """
    # The kernels (and numpy) load on the first live solve, so solve-
    # store and cachedb hits never pay for them.
    from repro.array import kernels

    with obs_phase("prefilter", obs, stats):
        batch = kernels.survivor_batch(spec)
    if stats is not None:
        stats._mark_eval_cache(eval_cache)
    eval_before = _eval_cache_counts(eval_cache)
    with obs_phase("build", obs, stats, candidates=batch.size):
        ev = kernels.evaluate_batch(tech, spec, batch, eval_cache)
    grid = org_grid_size(spec)
    _account(
        stats, obs, eval_cache, eval_before,
        enumerated=grid,
        prefiltered=grid - batch.size,
        built=batch.size,
        infeasible_at_build=ev.n_infeasible,
        feasible=ev.size,
    )
    if ev.size == 0:
        raise _no_feasible(spec)
    with obs_phase("rank", obs, stats, designs=ev.size):
        order = kernels.rank_batch(ev, target)
        if limit is not None:
            order = order[:limit]
        ranked = []
        for i in order:
            org, geometry = ev.batch.org_at(int(i))
            ranked.append(
                build_organization(
                    tech, spec, org, cache=eval_cache, geometry=geometry
                )
            )
    return ranked


def optimize(
    tech: Technology,
    spec: ArraySpec,
    target: OptimizationTarget,
    *,
    eval_cache: EvalCache | None = None,
    solve_cache=None,
    stats: SweepStats | None = None,
    obs: Obs | None = None,
) -> ArrayMetrics:
    """Full pipeline: enumerate, filter, rank; return the best design.

    ``eval_cache`` shares circuit designs across candidates (a fresh one
    is created per call when omitted); ``solve_cache`` is an optional
    :class:`~repro.core.solvecache.SolveCache` consulted before -- and
    flushed after -- the sweep; ``stats`` accumulates
    :class:`SweepStats` counters in place; ``obs`` records an
    ``optimize`` span with nested prefilter/build/rank children plus
    cache-hit metrics.  None of them changes any returned number.

    Candidates are evaluated in-process by the vectorized kernels
    (:mod:`repro.array.kernels`), bit-identical to building each one
    through :func:`feasible_designs`.
    """
    t0 = time.perf_counter()
    with maybe_span(
        obs,
        "optimize",
        capacity_bits=spec.capacity_bits,
        cell_tech=spec.cell_tech.value,
        node_nm=tech.node_nm,
    ) as span:
        if solve_cache is not None:
            if obs is not None:
                # Touch both counters so the snapshot always derives a
                # solve_cache.hit_rate once a cache is in play, even on
                # an all-miss (or all-hit) run.
                obs.metrics.counter("solve_cache.hits")
                obs.metrics.counter("solve_cache.misses")
            hit = solve_cache.get(spec, target, tech.node_nm)
            if hit is not None:
                if stats is not None:
                    stats.solve_cache_hits += 1
                    stats.wall_time_s += time.perf_counter() - t0
                if obs is not None:
                    obs.inc("solve_cache.hits")
                if span is not None:
                    span.attrs["solve_cache"] = "hit"
                _account_store(solve_cache, stats, obs)
                return hit
            if stats is not None:
                stats.solve_cache_misses += 1
            if obs is not None:
                obs.inc("solve_cache.misses")
        if eval_cache is None:
            eval_cache = EvalCache()
        swept = _with_repeater_penalty(spec, target)
        best = _ranked_designs(
            tech, swept, target, eval_cache=eval_cache, stats=stats,
            obs=obs, limit=1,
        )[0]
        if solve_cache is not None:
            solve_cache.put(spec, target, tech.node_nm, best)
            # Solve-boundary flush: deferred (one write per batch) when
            # the caller holds the cache open as a context manager.
            solve_cache.flush()
            if obs is not None:
                obs.gauge("solve_cache.records", len(solve_cache))
            _account_store(solve_cache, stats, obs)
        if stats is not None:
            stats.wall_time_s += time.perf_counter() - t0
        return best


def pareto_solutions(
    tech: Technology,
    spec: ArraySpec,
    target: OptimizationTarget,
    *,
    eval_cache: EvalCache | None = None,
    stats: SweepStats | None = None,
    obs: Obs | None = None,
) -> list[ArrayMetrics]:
    """All constraint-satisfying designs, ranked -- the solution cloud the
    paper plots in its Figure 1 validation bubbles."""
    t0 = time.perf_counter()
    with maybe_span(
        obs,
        "pareto",
        capacity_bits=spec.capacity_bits,
        cell_tech=spec.cell_tech.value,
        node_nm=tech.node_nm,
    ):
        if eval_cache is None:
            eval_cache = EvalCache()
        spec = _with_repeater_penalty(spec, target)
        ranked = _ranked_designs(
            tech, spec, target, eval_cache=eval_cache, stats=stats, obs=obs
        )
        if stats is not None:
            stats.wall_time_s += time.perf_counter() - t0
        return ranked


def _with_repeater_penalty(
    spec: ArraySpec, target: OptimizationTarget
) -> ArraySpec:
    if target.max_repeater_delay_penalty == spec.max_repeater_delay_penalty:
        return spec
    from dataclasses import replace

    return replace(
        spec, max_repeater_delay_penalty=target.max_repeater_delay_penalty
    )
