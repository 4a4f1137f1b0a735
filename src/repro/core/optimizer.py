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

An :class:`~repro.obs.Obs` counts what each layer did so speedups are
measurable; :class:`SweepStats` reads those counts back as the
optimizer's funnel.
"""

from __future__ import annotations

from collections.abc import Iterable

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
from repro.circuits.drivers import build_chain
from repro.core.config import OptimizationTarget
from repro.core.solvecache import account_store as _account_store
from repro.core.solvecache import solve_key
from repro.obs import MetricsRegistry, Obs
from repro.obs import phase as obs_phase
from repro.tech.nodes import Technology


class NoFeasibleSolution(RuntimeError):
    """No partitioning tuple could realize the requested array."""


#: ``SweepStats`` counter attributes and the registry counter each reads.
_COUNTERS = {
    "enumerated": "optimizer.enumerated",  # candidate tuples enumerated
    "prefiltered": "optimizer.prefiltered",  # cut by the structural filter
    "built": "optimizer.built",  # candidates evaluated
    "infeasible_at_build": "optimizer.infeasible_at_build",
    "feasible": "optimizer.feasible",  # designs that reached ranking
    "subarray_hits": "eval_cache.subarray.hits",
    "subarray_misses": "eval_cache.subarray.misses",
    "chain_memo_hits": "circuits.chain_memo.hits",  # process-wide memo
    "chain_memo_misses": "circuits.chain_memo.misses",
    "solve_cache_hits": "solve_cache.hits",  # whole solves from disk
    "solve_cache_misses": "solve_cache.misses",
    "store_evictions": "store.evictions",  # LRU-evicted store records
    "store_flush_writes": "store.flush_writes",  # saves written to disk
    "retries": "resilience.retries",
    "pool_rebuilds": "resilience.pool_rebuilds",
    "timeouts": "resilience.timeouts",
    "tasks_failed": "resilience.tasks_failed",
    "workers_absorbed": "workers.absorbed",  # worker payloads merged in
}

#: Phases whose summed wall time is the optimizer's own.
_OPTIMIZER_PHASES = ("optimize", "pareto")


class SweepStats:
    """Read-only view of the optimizer funnel in a metrics registry.

    Every attribute reads one registry instrument (see ``_COUNTERS``;
    ``phase_times`` sums the ``phase.<name>_s`` histograms and
    ``worker_phase_times`` their absorbed ``worker.`` versions) without
    creating missing ones, so the view never changes what the registry
    reports.  Build it over a run's ``obs.metrics``:
    ``SweepStats(obs.metrics).summary()`` is the CLI's ``--stats``.
    """

    __slots__ = ("metrics",)

    def __init__(self, metrics: MetricsRegistry):
        self.metrics = metrics

    def __getattr__(self, name: str) -> int:
        try:
            metric = _COUNTERS[name]
        except KeyError:
            raise AttributeError(name) from None
        counter = self.metrics.counters.get(metric)
        return counter.value if counter is not None else 0

    def _phase_sums(self, prefix: str) -> dict[str, float]:
        return {
            name[len(prefix):-len("_s")]: h.total
            for name, h in self.metrics.histograms.items()
            if name.startswith(prefix) and name.endswith("_s")
        }

    @property
    def phase_times(self) -> dict[str, float]:
        """Parent wall time per pipeline phase."""
        return self._phase_sums("phase.")

    @property
    def worker_phase_times(self) -> dict[str, float]:
        """Per-phase time absorbed from workers.  Kept apart from
        ``phase_times`` so the parent's report stays wall-clock true:
        concurrent workers' phases sum to more than elapsed time."""
        return self._phase_sums("worker.phase.")

    @property
    def wall_time_s(self) -> float:
        times = self.phase_times
        return sum(times.get(name, 0.0) for name in _OPTIMIZER_PHASES)

    @property
    def worker_time_s(self) -> float:
        times = self.worker_phase_times
        return sum(times.get(name, 0.0) for name in _OPTIMIZER_PHASES)

    @property
    def prefilter_rate(self) -> float:
        return self.prefiltered / self.enumerated if self.enumerated else 0.0

    @property
    def subarray_hit_rate(self) -> float:
        return _hit_rate(self.subarray_hits, self.subarray_misses)

    @property
    def chain_memo_hit_rate(self) -> float:
        return _hit_rate(self.chain_memo_hits, self.chain_memo_misses)

    def as_dict(self) -> dict:
        return {
            **{name: getattr(self, name) for name in _COUNTERS},
            "prefilter_rate": self.prefilter_rate,
            "subarray_hit_rate": self.subarray_hit_rate,
            "chain_memo_hit_rate": self.chain_memo_hit_rate,
            "wall_time_s": self.wall_time_s,
            "worker_time_s": self.worker_time_s,
            "phase_times": self.phase_times,
            "worker_phase_times": self.worker_phase_times,
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
            f"chain memo            : {self.chain_memo_hits} hits / "
            f"{self.chain_memo_misses} misses "
            f"({self.chain_memo_hit_rate * 100:.1f}%)",
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


def _hit_rate(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def _memo_counts(cache: EvalCache | None) -> dict[str, int]:
    """The memo counters one sweep reports as deltas: the process-wide
    driver-chain memo's, and the eval cache's when there is one."""
    chains = build_chain.cache_info()
    counts = {
        "circuits.chain_memo.hits": chains.hits,
        "circuits.chain_memo.misses": chains.misses,
    }
    if cache is not None:
        counts["eval_cache.subarray.hits"] = cache.subarray_hits
        counts["eval_cache.subarray.misses"] = cache.subarray_misses
    return counts


def _account(
    obs: Obs | None,
    cache: EvalCache | None,
    memo_before: dict[str, int],
    **counts: int,
) -> None:
    """Record one sweep's candidate counts and memo deltas.

    ``counts`` land in ``obs`` as ``optimizer.<name>``; the memo
    deltas are taken against ``memo_before``, a :func:`_memo_counts`
    snapshot.
    """
    if obs is None:
        return
    for name, n in counts.items():
        obs.inc(f"optimizer.{name}", n)
    for name, after in _memo_counts(cache).items():
        obs.inc(name, after - memo_before[name])


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
    memo_before = _memo_counts(cache)
    with obs_phase("prefilter", obs):
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
    with obs_phase("build", obs, candidates=len(candidates)):
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
        obs, cache, memo_before,
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
    :func:`feasible_designs`: eval-cache and chain-memo deltas are
    taken *before* winner materialization, so ``subarray_hits +
    subarray_misses == built`` holds.
    """
    # The kernels (and numpy) load on the first live solve, so solve-
    # store and cachedb hits never pay for them.
    from repro.array import kernels

    with obs_phase("prefilter", obs):
        batch = kernels.survivor_batch(spec)
    memo_before = _memo_counts(eval_cache)
    with obs_phase("build", obs, candidates=batch.size):
        ev = kernels.evaluate_batch(tech, spec, batch, eval_cache)
    grid = org_grid_size(spec)
    _account(
        obs, eval_cache, memo_before,
        enumerated=grid,
        prefiltered=grid - batch.size,
        built=batch.size,
        infeasible_at_build=ev.n_infeasible,
        feasible=ev.size,
    )
    if ev.size == 0:
        raise _no_feasible(spec)
    with obs_phase("rank", obs, designs=ev.size):
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
    obs: Obs | None = None,
) -> ArrayMetrics:
    """Full pipeline: enumerate, filter, rank; return the best design.

    ``eval_cache`` shares circuit designs across candidates (a fresh one
    is created per call when omitted); ``solve_cache`` is an optional
    :class:`~repro.core.solvecache.SolveCache` consulted before -- and
    flushed after -- the sweep; ``obs`` records an ``optimize`` phase
    with nested prefilter/build/rank children plus the funnel and
    cache-hit counters (read them back through :class:`SweepStats`).
    None of them changes any returned number.

    Candidates are evaluated in-process by the vectorized kernels
    (:mod:`repro.array.kernels`), bit-identical to building each one
    through :func:`feasible_designs`.
    """
    with obs_phase(
        "optimize",
        obs,
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
            key = solve_key(spec, target, tech.node_nm)
            hit = solve_cache.get(spec, target, tech.node_nm, key=key)
            if hit is not None:
                if obs is not None:
                    obs.inc("solve_cache.hits")
                    span.attrs["solve_cache"] = "hit"
                _account_store(solve_cache, obs)
                return hit
            if obs is not None:
                obs.inc("solve_cache.misses")
        if eval_cache is None:
            eval_cache = EvalCache()
        swept = _with_repeater_penalty(spec, target)
        best = _ranked_designs(
            tech, swept, target, eval_cache=eval_cache, obs=obs, limit=1
        )[0]
        if solve_cache is not None:
            solve_cache.put(spec, target, tech.node_nm, best, key=key)
            # Solve-boundary flush: deferred (one write per batch) when
            # the caller holds the cache open as a context manager.
            solve_cache.flush()
            if obs is not None:
                obs.gauge("solve_cache.records", len(solve_cache))
            _account_store(solve_cache, obs)
        return best


def pareto_solutions(
    tech: Technology,
    spec: ArraySpec,
    target: OptimizationTarget,
    *,
    eval_cache: EvalCache | None = None,
    obs: Obs | None = None,
) -> list[ArrayMetrics]:
    """All constraint-satisfying designs, ranked -- the solution cloud the
    paper plots in its Figure 1 validation bubbles."""
    with obs_phase(
        "pareto",
        obs,
        capacity_bits=spec.capacity_bits,
        cell_tech=spec.cell_tech.value,
        node_nm=tech.node_nm,
    ):
        if eval_cache is None:
            eval_cache = EvalCache()
        spec = _with_repeater_penalty(spec, target)
        return _ranked_designs(
            tech, spec, target, eval_cache=eval_cache, obs=obs
        )


def _with_repeater_penalty(
    spec: ArraySpec, target: OptimizationTarget
) -> ArraySpec:
    if target.max_repeater_delay_penalty == spec.max_repeater_delay_penalty:
        return spec
    from dataclasses import replace

    return replace(
        spec, max_repeater_delay_penalty=target.max_repeater_delay_penalty
    )
