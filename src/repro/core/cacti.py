"""Public CACTI-D solve API.

Entry points:

* :func:`solve` -- solve a cache or plain memory described by a
  :class:`~repro.core.config.MemorySpec`; caches get a tag array solved
  alongside the data array and composed per the access mode.
* :func:`solve_batch` -- solve many independent specs through the
  fan-out engine (:mod:`repro.core.parallel`), in-process or across
  worker processes, sharing one persistent solve cache.
* :func:`solve_main_memory` -- solve a commodity main-memory DRAM chip
  described by a :class:`~repro.array.mainmem.MainMemorySpec`, returning
  the datasheet-style timing interface and per-command energies.
* :class:`CactiD` -- a small facade caching the technology object across
  solves at one node.

:func:`solve_batch` takes ``jobs``: ``1`` (the default) solves
in-process, ``N > 1`` fans the specs out over ``N`` worker processes,
``<= 0`` means all available cores, and ``"auto"`` picks in-process or
all cores from the machine and the batch size.  Results are bit-identical
at any job count -- parallelism only changes wall time.  A single spec
always solves in-process: its candidate grid is evaluated by the
vectorized kernels, faster than worker processes could start.

Importing this module loads neither numpy nor the process pool: the
kernels load on the first live solve and the pool machinery on the
first :func:`solve_batch`, so a solve served from a solve store or a
cachedb never pays for either.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.array.mainmem import (
    MainMemoryEnergies,
    MainMemorySpec,
    MainMemoryTiming,
    derive_energies,
    derive_timing,
)
from repro.array.organization import (
    ArrayMetrics,
    ArraySpec,
    EvalCache,
    InfeasibleOrganization,
)
from repro.core.config import (
    DENSITY_OPTIMIZED,
    MemorySpec,
    OptimizationTarget,
)
from repro.core.optimizer import NoFeasibleSolution, SweepStats, optimize
from repro.core.resilience import ResiliencePolicy, TaskFailure, task_key
from repro.core.results import Solution
from repro.core.solvecache import SolveCache, account_store as _account_store
from repro.obs import Obs, maybe_span
from repro.obs import phase as obs_phase
from repro.tech.nodes import Technology, technology


#: SEC-DED ECC width: 8 check bits per 64 data bits.
_ECC_FACTOR_NUM, _ECC_FACTOR_DEN = 9, 8


def data_array_spec(spec: MemorySpec) -> ArraySpec:
    """The low-level data-array specification of a memory spec.

    With ``ecc`` enabled the array stores and moves 72 bits per 64 data
    bits (SEC-DED); tags are assumed parity-protected and unchanged.
    """
    capacity_bits = spec.capacity_bytes * 8
    output_bits = spec.block_bytes * 8
    if spec.ecc:
        capacity_bits = capacity_bits * _ECC_FACTOR_NUM // _ECC_FACTOR_DEN
        output_bits = output_bits * _ECC_FACTOR_NUM // _ECC_FACTOR_DEN
    return ArraySpec(
        capacity_bits=capacity_bits,
        output_bits=output_bits,
        assoc=spec.associativity or 1,
        nbanks=spec.nbanks,
        cell_tech=spec.cell_tech,
        periph_device_type=spec.periphery,
        sleep_transistors=spec.sleep_transistors,
    )


def tag_array_spec(spec: MemorySpec) -> ArraySpec:
    """The low-level tag-array specification of a cache spec."""
    if not spec.is_cache:
        raise ValueError("plain memories have no tag array")
    ways = spec.associativity or 1
    tag_bits = spec.tag_bits
    return ArraySpec(
        capacity_bits=spec.sets * ways * tag_bits,
        output_bits=ways * tag_bits,
        assoc=1,
        nbanks=spec.nbanks,
        cell_tech=spec.tag_technology,
        periph_device_type=spec.periphery,
        sleep_transistors=spec.sleep_transistors,
    )


def solve(
    spec: MemorySpec,
    target: OptimizationTarget | None = None,
    *,
    eval_cache: EvalCache | None = None,
    solve_cache: SolveCache | None = None,
    obs: Obs | None = None,
    cachedb=None,
) -> Solution:
    """Solve ``spec``, returning the optimizer's best design point.

    ``eval_cache`` shares circuit designs across candidates and solves
    (a fresh one spanning the data and tag sweeps is created when
    omitted); ``solve_cache`` short-circuits whole repeated solves from
    disk (flushed once at the solve boundary); ``obs`` records a
    ``solve`` span with nested data/tag array sweeps and counts the
    optimizer funnel (:class:`~repro.core.optimizer.SweepStats` reads
    it back).  ``cachedb`` (a
    :class:`~repro.cachedb.CacheDB`) is consulted first, inside that
    span: an exact precomputed hit -- bit-identical to solving live --
    returns in microseconds with the span tagged ``source="cachedb"``,
    anything else falls through to the solver.  None of
    them changes the returned numbers.  A single spec always solves
    in-process (use :func:`solve_batch` to fan specs out).
    """
    target = target or OptimizationTarget()
    with maybe_span(
        obs,
        "solve",
        capacity_bytes=spec.capacity_bytes,
        cell_tech=spec.cell_tech.value,
        node_nm=spec.node_nm,
        kind="cache" if spec.is_cache else "ram",
    ) as span:
        if cachedb is not None:
            precomputed = cachedb.lookup_exact(spec, target, obs=obs)
            if precomputed is not None:
                if span is not None:
                    span.attrs["source"] = "cachedb"
                return precomputed
        tech = technology(spec.node_nm)
        if eval_cache is None:
            eval_cache = EvalCache()
        # Hold the solve cache open so the data and tag sweeps flush
        # once, at this solve boundary, not once per optimize.
        with solve_cache if solve_cache is not None else nullcontext():
            with maybe_span(obs, "data_array"):
                data = optimize(
                    tech,
                    data_array_spec(spec),
                    target,
                    eval_cache=eval_cache,
                    solve_cache=solve_cache,
                    obs=obs,
                )
            tag = None
            if spec.is_cache:
                with maybe_span(obs, "tag_array"):
                    tag = optimize(
                        tech,
                        tag_array_spec(spec),
                        target,
                        eval_cache=eval_cache,
                        solve_cache=solve_cache,
                        obs=obs,
                    )
        # The boundary flush just ran (unless an enclosing batch defers
        # it further); drain its store events into the run's obs.
        _account_store(solve_cache, obs)
    return Solution(spec=spec, data=data, tag=tag)


class BatchOutcome(list):
    """A ``list`` of solutions that also carries partial-failure facts.

    Behaves exactly like a plain list (indexing, iteration, equality),
    with two additions: under a skip/retry resilience policy, slots
    whose solves failed terminally hold ``None`` and the corresponding
    :class:`~repro.core.resilience.TaskFailure` records live in
    ``failed`` (empty on a fully successful batch); ``restored`` counts
    the solutions served from the policy's journal without solving.
    """

    def __init__(self, solutions, failed=(), restored=0):
        super().__init__(solutions)
        self.failed: tuple[TaskFailure, ...] = tuple(failed)
        self.restored = restored


def _solve_task(payload: tuple) -> Solution | None:
    """Engine task: one full spec solve with the map's shared caches
    and ``Obs`` (:func:`repro.core.parallel.task_env`).

    With ``tolerate_infeasible`` the *intended* infeasibilities -- no
    feasible organization, or a geometry that cannot divide
    (``InfeasibleOrganization``) -- come back as None (a sweep's
    infeasible point); any other error is a genuine model failure and
    goes to the engine's error policy.
    """
    from repro.core.parallel import task_env

    spec, target, tolerate_infeasible = payload
    env = task_env()
    try:
        return solve(
            spec,
            target,
            eval_cache=env.eval_cache,
            solve_cache=env.solve_cache,
            obs=env.obs,
        )
    except (NoFeasibleSolution, InfeasibleOrganization):
        if not tolerate_infeasible:
            raise
        return None


def _solve_map(
    specs: list[MemorySpec],
    targets: list[OptimizationTarget | None],
    *,
    stage: str,
    tolerate_infeasible: bool = False,
    eval_cache: EvalCache | None,
    solve_cache: SolveCache | None,
    jobs: int,
    obs: Obs | None,
    resilience: ResiliencePolicy | None,
) -> BatchOutcome:
    """Solve ``specs`` through the fan-out engine as ``stage`` tasks
    (the journal key of each is its spec and target)."""
    from repro.core import parallel

    keys = None
    restored = 0
    journal = resilience.journal if resilience is not None else None
    if journal is not None:
        keys = [
            task_key(
                stage, {"spec": spec, "target": tgt or OptimizationTarget()}
            )
            for spec, tgt in zip(specs, targets)
        ]
        restored = sum(key in journal for key in keys)
    outcomes = parallel.parallel_map(
        _solve_task,
        [
            (spec, tgt, tolerate_infeasible)
            for spec, tgt in zip(specs, targets)
        ],
        jobs,
        obs=obs,
        span_name=stage,
        resilience=resilience,
        keys=keys,
        eval_cache=eval_cache,
        solve_cache=solve_cache,
    )
    failed = [o for o in outcomes if isinstance(o, TaskFailure)]
    return BatchOutcome(
        [None if isinstance(o, TaskFailure) else o for o in outcomes],
        failed,
        restored,
    )


def solve_batch(
    specs: Sequence[MemorySpec],
    target: OptimizationTarget | Sequence[OptimizationTarget] | None = None,
    *,
    eval_cache: EvalCache | None = None,
    solve_cache: SolveCache | None = None,
    jobs: int | str = 1,
    obs: Obs | None = None,
    resilience: ResiliencePolicy | None = None,
) -> BatchOutcome:
    """Solve independent specs, returning solutions in spec order.

    ``target`` is one target for the whole batch or a sequence matching
    ``specs``.  The batch runs through the fan-out engine
    (:func:`repro.core.parallel.parallel_map`), which owns the
    difference between its two modes:

    * in-process (``jobs`` resolves to 1, or one spec): every solve
      shares ``eval_cache`` (one fresh cache for the call when
      omitted), ``solve_cache`` is held open so the batch does one
      deferred flush, and ``obs`` records every span and counter
      directly;
    * pooled: workers share the persistent ``solve_cache`` by URL
      (atomic merge-on-save writes make concurrent writers safe) and,
      when ``obs`` is given, ship their spans and metrics home for
      absorption.

    The returned solutions are bit-identical at any job count.

    ``resilience`` (default: fail fast) sets the failure policy: failed
    solves are retried/skipped/raised per the policy, a journal
    checkpoints each completed spec (resume re-solves only the
    unfinished ones; ``.restored`` counts the rest), and in skip/retry
    mode the returned :class:`BatchOutcome` carries ``None`` at failed
    slots plus the failures in ``.failed``.
    """
    # The process pool machinery loads only when a batch runs.
    from repro.core import parallel

    specs = list(specs)
    if target is None or isinstance(target, OptimizationTarget):
        targets = [target] * len(specs)
    else:
        targets = list(target)
        if len(targets) != len(specs):
            raise ValueError(
                f"{len(specs)} specs but {len(targets)} targets"
            )
    jobs = parallel.effective_jobs(jobs, len(specs))
    with obs_phase("batch", obs, specs=len(specs), jobs=jobs):
        return _solve_map(
            specs,
            targets,
            stage="batch.solve",
            eval_cache=eval_cache,
            solve_cache=solve_cache,
            jobs=jobs,
            obs=obs,
            resilience=resilience,
        )


@dataclass(frozen=True)
class MainMemorySolution:
    """A solved main-memory DRAM chip: array + interface views."""

    spec: MainMemorySpec
    metrics: ArrayMetrics
    timing: MainMemoryTiming
    energies: MainMemoryEnergies

    @property
    def area_mm2(self) -> float:
        return self.metrics.area * 1e6

    @property
    def area_efficiency(self) -> float:
        return self.metrics.area_efficiency

    def summary(self) -> str:
        t, e = self.timing, self.energies
        gb = self.spec.capacity_bits / 2**30
        lines = [
            f"capacity        : {gb:.0f} Gb x{self.spec.data_pins}, "
            f"{self.spec.nbanks} banks, BL{self.spec.burst_length}",
            f"area efficiency : {self.area_efficiency * 100:.0f}%",
            f"tRCD            : {t.t_rcd * 1e9:.1f} ns",
            f"CAS latency     : {t.t_cas * 1e9:.1f} ns",
            f"tRP             : {t.t_rp * 1e9:.1f} ns",
            f"tRC             : {t.t_rc * 1e9:.1f} ns",
            f"tRRD            : {t.t_rrd * 1e9:.1f} ns",
            f"ACTIVATE energy : {e.e_activate * 1e9:.2f} nJ",
            f"READ energy     : {e.e_read * 1e9:.2f} nJ",
            f"WRITE energy    : {e.e_write * 1e9:.2f} nJ",
            f"refresh power   : {e.p_refresh * 1e3:.2f} mW",
            f"standby power   : {e.p_standby * 1e3:.2f} mW",
        ]
        return "\n".join(lines)

    def run_report(self) -> dict:
        """Machine-readable report of this solved chip.

        Plain JSON types only, so benchmark harnesses can serialize it
        and diff runs against recorded ``BENCH_*.json`` baselines.
        """
        t, e = self.timing, self.energies
        return {
            "kind": "main_memory",
            "spec": {
                "capacity_bits": self.spec.capacity_bits,
                "nbanks": self.spec.nbanks,
                "data_pins": self.spec.data_pins,
                "burst_length": self.spec.burst_length,
                "page_bits": self.spec.page_bits,
                "cell_tech": self.spec.cell_tech.value,
                "cell_traits": self.spec.cell_tech.traits.as_dict(),
            },
            "organization": {
                "ndwl": self.metrics.org.ndwl,
                "ndbl": self.metrics.org.ndbl,
                "nspd": self.metrics.org.nspd,
                "ndcm": self.metrics.org.ndcm,
                "ndsam": self.metrics.org.ndsam,
            },
            "timing_ns": {
                "t_rcd": t.t_rcd * 1e9,
                "t_cas": t.t_cas * 1e9,
                "t_rp": t.t_rp * 1e9,
                "t_ras": t.t_ras * 1e9,
                "t_rc": t.t_rc * 1e9,
                "t_rrd": t.t_rrd * 1e9,
            },
            "energy_nj": {
                "e_activate": e.e_activate * 1e9,
                "e_read": e.e_read * 1e9,
                "e_write": e.e_write * 1e9,
            },
            "power_mw": {
                "p_refresh": e.p_refresh * 1e3,
                "p_standby": e.p_standby * 1e3,
            },
            "area_mm2": self.area_mm2,
            "area_efficiency": self.area_efficiency,
        }


def solve_main_memory(
    spec: MainMemorySpec,
    node_nm: float,
    target: OptimizationTarget | None = None,
    clock_period: float = 0.0,
    *,
    eval_cache: EvalCache | None = None,
    solve_cache: SolveCache | None = None,
    jobs: int | str = 1,
    obs: Obs | None = None,
) -> MainMemorySolution:
    """Solve a main-memory DRAM chip at ``node_nm``.

    Commodity parts default to the density-optimized preset because of the
    premium on price per bit (paper section 2.5).  A single chip always
    solves in-process; ``jobs`` is accepted and ignored only because
    existing benchmark scripts still pass ``jobs=1``.
    """
    target = target or DENSITY_OPTIMIZED
    tech = technology(node_nm)
    array_spec = spec.array_spec()
    with maybe_span(
        obs,
        "solve_main_memory",
        capacity_bits=spec.capacity_bits,
        node_nm=node_nm,
    ):
        metrics = optimize(
            tech,
            array_spec,
            target,
            eval_cache=eval_cache,
            solve_cache=solve_cache,
            obs=obs,
        )
        with maybe_span(obs, "derive_interface"):
            timing = derive_timing(spec, metrics, clock_period)
            vdd_cell = tech.cell(
                array_spec.cell_tech, array_spec.periph_device_type
            ).vdd_cell
            energies = derive_energies(spec, metrics, vdd_cell)
    return MainMemorySolution(
        spec=spec, metrics=metrics, timing=timing, energies=energies
    )


class CactiD:
    """Facade for repeated solves at one technology node.

    Holds an :class:`~repro.array.organization.EvalCache` so circuit
    designs (subarrays, H-trees, repeated wires) are shared across every
    solve issued through the facade, and -- when ``cache_path`` is given
    -- a persistent :class:`~repro.core.solvecache.SolveCache` so whole
    repeated solves are served from disk across processes.  Pass ``obs``
    (an :class:`~repro.obs.Obs`) to record tracing spans and metrics
    across every solve issued through the facade; :attr:`stats` then
    reads its optimizer funnel back.

    ``cachedb`` -- a :class:`~repro.cachedb.CacheDB` or an artifact
    path -- puts a precomputed design-space database in front of the
    solver: every solve issued through the facade checks it for an
    exact (bit-identical) hit first.
    """

    def __init__(
        self,
        node_nm: float = 32.0,
        cache_path=None,
        obs: Obs | None = None,
        resilience: ResiliencePolicy | None = None,
        cachedb=None,
    ):
        self.node_nm = node_nm
        self.eval_cache = EvalCache()
        self.solve_cache = (
            SolveCache(cache_path) if cache_path is not None else None
        )
        self.obs = obs
        self.resilience = resilience
        if cachedb is not None and not hasattr(cachedb, "lookup_exact"):
            # A path: open it through the per-process reader memo.
            from repro.cachedb import open_cachedb

            cachedb = open_cachedb(cachedb)
        self.cachedb = cachedb

    @property
    def stats(self) -> SweepStats | None:
        """The optimizer funnel of every solve so far (None without
        an ``obs``: the facade counts nothing unobserved)."""
        return SweepStats(self.obs.metrics) if self.obs is not None else None

    @cached_property
    def technology(self) -> Technology:
        return technology(self.node_nm)

    def solve(
        self,
        spec: MemorySpec,
        target: OptimizationTarget | None = None,
    ) -> Solution:
        """Solve one spec in-process."""
        self._check_node(spec)
        return solve(
            spec,
            target,
            eval_cache=self.eval_cache,
            solve_cache=self.solve_cache,
            obs=self.obs,
            cachedb=self.cachedb,
        )

    def solve_batch(
        self,
        specs: Sequence[MemorySpec],
        target: (
            OptimizationTarget | Sequence[OptimizationTarget] | None
        ) = None,
        jobs: int | str = 1,
    ) -> BatchOutcome:
        """Solve many specs at this node, optionally across processes.

        In-process batches reuse the facade's EvalCache and solve cache
        instance; pooled batches share the facade's persistent solve
        cache by URL.  Either way every counter lands in ``self.obs``
        (read via ``self.stats``).
        """
        for spec in specs:
            self._check_node(spec)
        return solve_batch(
            specs,
            target,
            eval_cache=self.eval_cache,
            solve_cache=self.solve_cache,
            jobs=jobs,
            obs=self.obs,
            resilience=self.resilience,
        )

    def solve_main_memory(
        self,
        spec: MainMemorySpec,
        target: OptimizationTarget | None = None,
        clock_period: float = 0.0,
    ) -> MainMemorySolution:
        """Solve one chip in-process."""
        return solve_main_memory(
            spec,
            self.node_nm,
            target,
            clock_period,
            eval_cache=self.eval_cache,
            solve_cache=self.solve_cache,
            obs=self.obs,
        )

    def _check_node(self, spec: MemorySpec) -> None:
        if spec.node_nm != self.node_nm:
            raise ValueError(
                f"spec is at {spec.node_nm} nm, facade at {self.node_nm} nm"
            )
