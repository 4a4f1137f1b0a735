"""Command-line interface, in the spirit of the original CACTI tool.

Usage::

    python -m repro cache --capacity 2M --assoc 8 --tech lp-dram
    python -m repro cache --capacity 2M --cache sqlite:solves.db
    python -m repro cache info sqlite:solves.db
    python -m repro cache gc solves.json
    python -m repro cache migrate solves.json \
        "sqlite:solves.db?max_records=10000"
    python -m repro main-memory --capacity 1G --node 78 --pins 8
    python -m repro validate-ddr3
    python -m repro table3 --resume table3.journal
    python -m repro study --configs nol3,sram --on-error retry
    python -m repro sweep --capacity 2M --parameter capacity_bytes \
        --values 1M,2M,4M,8M
    python -m repro cachedb build db.json --capacities 64K,256K,1M \
        --nodes 32,45 --resume build.journal
    python -m repro cachedb query db.json --capacity 96K --node 38
    python -m repro cachedb info db.json

Sizes accept K/M/G suffixes (powers of two).  The subcommands that map
many tasks (``table3``, ``study``, ``sweep``, ``cachedb build``) take
the ``--on-error {raise,skip,retry}``, ``--retries``, ``--task-timeout``
and ``--resume PATH`` (checkpoint journal) fault-tolerance knobs;
``cache`` and ``main-memory`` solve one spec in-process and fail fast.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.config import (
    DENSITY_OPTIMIZED,
    ENERGY_DELAY_OPTIMIZED,
    AccessMode,
    MemorySpec,
    OptimizationTarget,
)
from repro.core.optimizer import NoFeasibleSolution, SweepStats
from repro.core.resilience import ON_ERROR_POLICIES, Journal, ResiliencePolicy
from repro.core.solvecache import SolveCache
from repro.obs import Obs
from repro.tech.cells import CellTech
from repro.tech.registry import registered_names

_PRESETS = {
    "balanced": OptimizationTarget(),
    "density": DENSITY_OPTIMIZED,
    "energy-delay": ENERGY_DELAY_OPTIMIZED,
}


def parse_size(text: str) -> int:
    """Parse '32K', '2M', '1G' (powers of two) or a raw integer.

    Sizes must be positive: a zero or negative capacity would only
    surface later as a confusing arithmetic error deep in the solver.
    """
    text = text.strip().upper()
    multipliers = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in multipliers:
        if text[-1] == text:
            raise ValueError(f"no number in size {text!r}")
        value = int(float(text[:-1]) * multipliers[text[-1]])
    else:
        value = int(text)
    if value <= 0:
        raise ValueError(f"size must be positive, got {text!r}")
    return value


def _size_arg(text: str) -> int:
    """argparse ``type=`` wrapper: surface parse_size's message verbatim.

    argparse swallows ValueError and prints a generic "invalid value";
    ArgumentTypeError keeps "size must be positive, got ..." visible.
    """
    try:
        return parse_size(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _jobs_arg(text: str) -> int | str:
    """argparse ``type=`` wrapper for ``--jobs``: an integer or ``auto``.

    ``auto`` defers the worker-count decision to
    :func:`repro.core.parallel.effective_jobs`, which weighs the
    machine and the workload (serial on one core or for a single
    task, where process fan-out costs more than it saves).
    """
    if text.strip().lower() == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {text!r}"
        ) from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CACTI-D reproduction: memory-hierarchy modeling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cache = sub.add_parser("cache", help="solve a cache or plain memory")
    # --capacity is required for solving but checked manually: the
    # store-maintenance subcommands below (info/gc/migrate) share this
    # parser and take a store argument instead.
    cache.add_argument("--capacity", type=_size_arg, default=None,
                       help="e.g. 32K, 2M, 192M (required to solve)")
    cache.add_argument("--block", type=_size_arg, default=64)
    cache.add_argument("--assoc", type=int, default=8,
                       help="associativity; 0 for a plain RAM")
    cache.add_argument("--banks", type=int, default=1)
    cache.add_argument("--node", type=float, default=32.0,
                       help="feature size in nm (32-90)")
    # Choices come from the technology registry, so a tech module
    # registered at import time (e.g. stt-ram) is solvable with no CLI
    # edits, and an unknown name exits 2 listing the registered ones.
    cache.add_argument("--tech", default="sram",
                       choices=sorted(registered_names()))
    cache.add_argument("--tag-tech", default=None, dest="tag_tech",
                       choices=sorted(registered_names()),
                       help="tag-array technology (default: same as "
                            "--tech)")
    cache.add_argument("--sequential", action="store_true",
                       help="tag-then-data access mode")
    cache.add_argument("--sleep-transistors", action="store_true")
    cache.add_argument("--optimize", default="balanced",
                       choices=sorted(_PRESETS))
    cache.add_argument("--cachedb", metavar="PATH", default=None,
                       help="precomputed design-space database; an exact "
                            "grid hit is served from it instead of solving")

    # Solve-store maintenance rides the cache command as optional
    # subcommands; `repro cache --capacity ...` keeps solving as before.
    cache_ops = cache.add_subparsers(
        dest="cache_command", required=False,
        metavar="{info,gc,migrate}",
    )
    cache_info = cache_ops.add_parser(
        "info", help="describe a solve store (backend, records, versions)"
    )
    cache_info.add_argument("store", help="store path or sqlite: URL")
    cache_gc = cache_ops.add_parser(
        "gc",
        help="reclaim a solve store: purge tombstoned records, drop "
             "stale-version sibling files (JSON) or superseded-version "
             "rows (sqlite), compact the file",
    )
    cache_gc.add_argument("store", help="store path or sqlite: URL")
    cache_migrate = cache_ops.add_parser(
        "migrate",
        help="copy every live record between stores, e.g. a grown JSON "
             "cache into a bounded sqlite store",
    )
    cache_migrate.add_argument("src", help="source store path or URL")
    cache_migrate.add_argument("dst", help="destination store path or URL")

    mm = sub.add_parser("main-memory", help="solve a main-memory DRAM chip")
    mm.add_argument("--capacity", required=True, type=_size_arg,
                    help="bits, e.g. 1G = 1 Gb")
    mm.add_argument("--node", type=float, default=32.0)
    mm.add_argument("--banks", type=int, default=8)
    mm.add_argument("--pins", type=int, default=8)
    mm.add_argument("--burst", type=int, default=8)
    mm.add_argument("--page", type=_size_arg, default=8192,
                    help="page size in bits")

    validate = sub.add_parser(
        "validate-ddr3", help="reproduce the paper's Table 2 validation"
    )
    table3 = sub.add_parser(
        "table3", help="solve the LLC study's Table 3 columns"
    )

    study = sub.add_parser(
        "study", help="run the LLC study matrix (apps x configurations)"
    )
    study.add_argument("--apps", default=None, metavar="A,B,...",
                       help="comma-separated app subset (default: all)")
    study.add_argument("--configs", default=None, metavar="C1,C2,...",
                       help="comma-separated configuration subset "
                            "(default: all six)")
    study.add_argument("--source", default="paper",
                       choices=("paper", "cacti"),
                       help="latency/energy source: published Table 3 "
                            "values or the live solver")
    study.add_argument("--scale", type=int, default=16,
                       help="capacity-scaling factor for tractable runs")
    study.add_argument("--instructions", type=int, default=None,
                       metavar="N", help="instructions per thread")
    study.add_argument("--seed", type=int, default=1234)
    study.add_argument("--cachedb", metavar="PATH", default=None,
                       help="precomputed design-space database serving the "
                            "--source cacti solves")

    sweep = sub.add_parser(
        "sweep", help="sensitivity sweep of one spec parameter"
    )
    sweep.add_argument("--capacity", required=True, type=_size_arg)
    sweep.add_argument("--block", type=_size_arg, default=64)
    sweep.add_argument("--assoc", type=int, default=8,
                       help="associativity; 0 for a plain RAM")
    sweep.add_argument("--banks", type=int, default=1)
    sweep.add_argument("--node", type=float, default=32.0)
    sweep.add_argument("--tech", default="sram",
                       choices=sorted(registered_names()))
    sweep.add_argument("--parameter", required=True,
                       help="spec field to sweep (e.g. capacity_bytes)")
    sweep.add_argument("--values", required=True, metavar="V1,V2,...",
                       help="comma-separated sweep values (sizes accept "
                            "K/M/G suffixes)")
    sweep.add_argument("--optimize", default="balanced",
                       choices=sorted(_PRESETS))

    cachedb = sub.add_parser(
        "cachedb",
        help="precomputed design-space database: build, query, inspect",
    )
    cdb_sub = cachedb.add_subparsers(dest="cachedb_command", required=True)

    cdb_build = cdb_sub.add_parser(
        "build", help="precompute a design-space grid into an artifact"
    )
    cdb_build.add_argument("path", help="artifact file to write (JSON)")
    cdb_build.add_argument("--capacities", required=True,
                           metavar="C1,C2,...",
                           help="comma-separated capacities (K/M/G sizes)")
    cdb_build.add_argument("--assocs", default="8", metavar="A1,A2,...",
                           help="associativities; 0 for a plain RAM")
    cdb_build.add_argument("--blocks", default="64", metavar="B1,B2,...",
                           help="block sizes in bytes")
    cdb_build.add_argument("--nodes", default="32", metavar="N1,N2,...",
                           help="feature sizes in nm (32-90)")
    cdb_build.add_argument("--techs", default=None, metavar="T1,T2,...",
                           help="technology registry names "
                                "(default: every registered technology)")
    cdb_build.add_argument("--optimize", default="balanced",
                           choices=sorted(_PRESETS))
    # Dense grids always contain infeasible corners; record them as
    # holes and keep building rather than failing the whole artifact.
    cdb_build.set_defaults(on_error="skip")

    cdb_query = cdb_sub.add_parser(
        "query", help="answer one design query from an artifact"
    )
    cdb_query.add_argument("path", help="artifact file (from cachedb build)")
    cdb_query.add_argument("--capacity", required=True, type=_size_arg)
    cdb_query.add_argument("--assoc", type=int, default=8,
                           help="associativity; 0 for a plain RAM")
    cdb_query.add_argument("--block", type=_size_arg, default=64)
    cdb_query.add_argument("--node", type=float, default=32.0)
    cdb_query.add_argument("--tech", default="sram",
                           choices=sorted(registered_names()))
    cdb_query.add_argument("--fallback", default="solve",
                           choices=("solve", "error", "nearest"),
                           help="what to do when the grid cannot answer: "
                                "solve live, fail, or snap to the nearest "
                                "grid point")

    cdb_info = cdb_sub.add_parser(
        "info", help="summarize an artifact (works across model versions)"
    )
    cdb_info.add_argument("path", help="artifact file to inspect")

    # Every subcommand ultimately runs the same solver, so every
    # subcommand gets the same solver knobs and observability outputs.
    for solver in (cache, mm, validate, table3, study, sweep, cdb_build):
        solver.add_argument(
            "--cache", metavar="STORE", default=None, dest="cache_path",
            help="persistent solve store; repeated identical solves are "
                 "served from it.  A plain path keeps the JSON-file "
                 "backend; 'sqlite:PATH[?max_records=N&shard_prefix=P]' "
                 "opens a bounded WAL-mode sqlite store",
        )
        solver.add_argument(
            "--stats", action="store_true",
            help="print the run's optimizer funnel (candidates "
                 "enumerated, pre-filtered, built, feasible), cache hit "
                 "counts, resilience events and phase wall times, read "
                 "from the same counters --metrics writes",
        )
        solver.add_argument(
            "--jobs", type=_jobs_arg, default="auto", metavar="N",
            help="worker processes for batches, studies, sweeps and "
                 "cachedb builds (1 = serial, 0 = all cores, 'auto' = "
                 "serial or all cores by machine and workload; default "
                 "auto); a single solve always runs in-process; results "
                 "are bit-identical at any setting",
        )
        solver.add_argument(
            "--trace", metavar="FILE", default=None,
            help="write a Chrome trace-event JSON of the run "
                 "(open in chrome://tracing or Perfetto)",
        )
        solver.add_argument(
            "--metrics", metavar="FILE", default=None,
            help="write a JSON metrics snapshot of the run (counters, "
                 "gauges, latency histograms, cache hit rates)",
        )
    # Fault-tolerance knobs, for the subcommands that map many tasks.
    # cache and main-memory solve one spec and validate-ddr3 a fixed
    # small set, in-process, so they keep the plain fail-fast path.
    for solver in (table3, study, sweep, cdb_build):
        solver.add_argument(
            "--on-error", default="raise", choices=ON_ERROR_POLICIES,
            dest="on_error",
            help="task-failure policy: fail fast, skip the task "
                 "(recorded, run continues), or retry with backoff",
        )
        solver.add_argument(
            "--retries", type=int, default=2, metavar="N",
            help="retry attempts per task (with --on-error retry)",
        )
        solver.add_argument(
            "--task-timeout", type=float, default=None, metavar="SECONDS",
            dest="task_timeout",
            help="per-task wall-clock budget; overdue tasks are "
                 "cancelled (parallel runs only)",
        )
        solver.add_argument(
            "--resume", metavar="PATH", default=None,
            help="checkpoint journal: completed work is recorded here "
                 "and restored on the next run with the same --resume",
        )
    return parser


def _solver_knobs(args: argparse.Namespace) -> tuple:
    """The optional solve cache, observability bundle, and resilience
    policy for a run.  One ``Obs`` backs ``--stats``, ``--trace`` and
    ``--metrics`` alike, so all three report the same counts."""
    solve_cache = (
        SolveCache(args.cache_path) if args.cache_path is not None else None
    )
    obs = Obs() if (args.stats or args.trace or args.metrics) else None
    return solve_cache, obs, _resilience_policy(args)


def _resilience_policy(args: argparse.Namespace) -> ResiliencePolicy | None:
    """A policy from the CLI flags, or None when every flag is default
    (the engine's default fail-fast policy, no journal)."""
    on_error = getattr(args, "on_error", "raise")
    timeout = getattr(args, "task_timeout", None)
    resume = getattr(args, "resume", None)
    if on_error == "raise" and timeout is None and resume is None:
        return None
    return ResiliencePolicy(
        on_error=on_error,
        max_retries=getattr(args, "retries", 2),
        timeout_s=timeout,
        journal=Journal(resume) if resume is not None else None,
    )


def _report_obs(args: argparse.Namespace, obs: Obs | None) -> None:
    """Print ``--stats`` and write the requested trace/metrics files
    after a successful run."""
    if obs is None:
        return
    if args.stats:
        print()
        print(SweepStats(obs.metrics).summary())
    if args.trace:
        obs.tracer.write_chrome(args.trace)
    if args.metrics:
        obs.metrics.write(args.metrics)


def _run_cache_store(args: argparse.Namespace) -> int:
    """Store maintenance: ``repro cache {info,gc,migrate}``."""
    from repro.core.solvecache import open_solve_store
    from repro.store import migrate_store

    if args.cache_command == "migrate":
        src = open_solve_store(args.src)
        try:
            dst = open_solve_store(args.dst)
        except Exception:
            src.close()
            raise
        try:
            report = migrate_store(src, dst)
        finally:
            src.close()
            dst.close()
    else:
        store = open_solve_store(args.store)
        try:
            report = (store.info() if args.cache_command == "info"
                      else store.gc())
        finally:
            store.close()
    for key, value in report.items():
        print(f"{key:<20}: {value}")
    return 0


def _run_cache(args: argparse.Namespace) -> int:
    if args.cache_command is not None:
        return _run_cache_store(args)
    if args.capacity is None:
        raise ValueError(
            "--capacity is required to solve "
            "(store maintenance: repro cache {info,gc,migrate})"
        )
    spec = MemorySpec(
        capacity_bytes=args.capacity,
        block_bytes=args.block,
        associativity=args.assoc or None,
        nbanks=args.banks,
        node_nm=args.node,
        cell_tech=CellTech(args.tech),
        access_mode=(AccessMode.SEQUENTIAL if args.sequential
                     else AccessMode.NORMAL),
        sleep_transistors=args.sleep_transistors,
        tag_cell_tech=(
            CellTech(args.tag_tech) if args.tag_tech is not None else None
        ),
    )
    from repro.core.cacti import solve

    solve_cache, obs, _unused = _solver_knobs(args)
    cachedb = None
    if args.cachedb is not None:
        from repro.cachedb.reader import CacheDB

        cachedb = CacheDB(args.cachedb, obs=obs)
    solution = solve(
        spec,
        _PRESETS[args.optimize],
        solve_cache=solve_cache,
        obs=obs,
        cachedb=cachedb,
    )
    print(solution.summary())
    _report_obs(args, obs)
    return 0


def _run_main_memory(args: argparse.Namespace) -> int:
    from repro.array.mainmem import MainMemorySpec
    from repro.core.cacti import solve_main_memory

    spec = MainMemorySpec(
        capacity_bits=args.capacity,
        nbanks=args.banks,
        data_pins=args.pins,
        burst_length=args.burst,
        page_bits=args.page,
    )
    solve_cache, obs, _unused = _solver_knobs(args)
    solution = solve_main_memory(
        spec,
        node_nm=args.node,
        solve_cache=solve_cache,
        obs=obs,
    )
    print(solution.summary())
    _report_obs(args, obs)
    return 0


def _run_validate(args: argparse.Namespace) -> int:
    from repro.validation.compare import validate_ddr3

    solve_cache, obs, _unused = _solver_knobs(args)
    validation = validate_ddr3(solve_cache=solve_cache, obs=obs)
    print(validation.report())
    _report_obs(args, obs)
    return 0


def _run_table3(args: argparse.Namespace) -> int:
    from repro.study.table3 import solve_table3

    solve_cache, obs, resilience = _solver_knobs(args)
    # Pass only the live knobs: a knob-free call keeps table3's memo of
    # already-solved rows (and a second `repro table3` stays fast).
    # Each row is one in-process solve, so --jobs has nothing to fan out.
    knobs = {}
    if solve_cache is not None:
        knobs["solve_cache"] = solve_cache
    if obs is not None:
        knobs["obs"] = obs
    if resilience is not None:
        knobs["resilience"] = resilience
    for name, row in solve_table3(**knobs).items():
        cap = row.capacity_bytes
        cap_str = (f"{cap >> 20}MB" if cap >= 1 << 20 else f"{cap >> 10}KB")
        print(
            f"{name:<12}{cap_str:>8}  access={row.access_cycles} cyc  "
            f"cycle={row.cycle_cycles} cyc  area/bank={row.area_mm2:.2f} mm2 "
            f"leak={row.leakage_w:.3f} W  refresh={row.refresh_w:.4f} W  "
            f"E_rd={row.e_read_nj:.2f} nJ"
        )
    _report_obs(args, obs)
    return 0


def _print_failures(failed) -> None:
    if failed:
        print(f"warning: {len(failed)} task(s) failed:", file=sys.stderr)
        for failure in failed:
            print(f"  {failure}", file=sys.stderr)


def _run_study(args: argparse.Namespace) -> int:
    from repro.study.runner import run_study
    from repro.study.table3 import CONFIG_NAMES
    from repro.workloads.npb import NPB_PROFILES

    profiles = NPB_PROFILES
    if args.apps is not None:
        wanted = [a.strip() for a in args.apps.split(",") if a.strip()]
        known = {p.name: p for p in NPB_PROFILES}
        missing = [a for a in wanted if a not in known]
        if missing:
            raise ValueError(
                f"unknown app(s) {missing}; choose from {sorted(known)}"
            )
        profiles = tuple(known[a] for a in wanted)
    configs = CONFIG_NAMES
    if args.configs is not None:
        configs = tuple(
            c.strip() for c in args.configs.split(",") if c.strip()
        )
        unknown = [c for c in configs if c not in CONFIG_NAMES]
        if unknown:
            raise ValueError(
                f"unknown configuration(s) {unknown}; "
                f"choose from {list(CONFIG_NAMES)}"
            )
    _solve_cache, obs, resilience = _solver_knobs(args)
    result = run_study(
        profiles=profiles,
        configs=configs,
        source=args.source,
        scale=args.scale,
        instructions_per_thread=args.instructions,
        seed=args.seed,
        jobs=args.jobs,
        obs=obs,
        resilience=resilience,
        cachedb=args.cachedb,
    )
    header = "app".ljust(10) + "".join(c.rjust(12) for c in configs)
    print(header)
    for app in result.app_names:
        cells = []
        for config in configs:
            run = result.results.get((app, config))
            cells.append("-".rjust(12) if run is None
                         else f"{run.ipc:.3f}".rjust(12))
        print(app.ljust(10) + "".join(cells))
    if "nol3" in configs and not result.failed:
        for config in configs:
            if config == "nol3":
                continue
            print(
                f"{config:<12} execution reduction "
                f"{result.mean_execution_reduction(config) * 100:+5.1f}%  "
                "energy-delay improvement "
                f"{result.mean_energy_delay_improvement(config) * 100:+5.1f}%"
            )
    _print_failures(result.failed)
    _report_obs(args, obs)
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.study.sensitivity import SWEEPABLE, sweep

    if args.parameter not in SWEEPABLE:
        raise ValueError(
            f"cannot sweep {args.parameter!r}; choose one of {SWEEPABLE}"
        )
    raw = [v.strip() for v in args.values.split(",") if v.strip()]
    if not raw:
        raise ValueError("--values needs at least one value")
    if args.parameter in ("capacity_bytes", "block_bytes"):
        values = [parse_size(v) for v in raw]
    elif args.parameter == "node_nm":
        values = [float(v) for v in raw]
    elif args.parameter == "cell_tech":
        # Categorical: values are technology registry names.  CellTech
        # rejects unknown names here with the registered list, before
        # any solving starts.
        values = [CellTech(v).value for v in raw]
    else:
        values = [int(v) for v in raw]
    base = MemorySpec(
        capacity_bytes=args.capacity,
        block_bytes=args.block,
        associativity=args.assoc or None,
        nbanks=args.banks,
        node_nm=args.node,
        cell_tech=CellTech(args.tech),
    )
    solve_cache, obs, resilience = _solver_knobs(args)
    result = sweep(
        base,
        args.parameter,
        values,
        _PRESETS[args.optimize],
        solve_cache=solve_cache,
        jobs=args.jobs,
        obs=obs,
        resilience=resilience,
    )
    for point in result.points:
        # Numeric sweep values print as numbers; categorical ones
        # (cell_tech registry names) are already strings.
        value = (f"{point.value:g}" if isinstance(point.value, float)
                 else str(point.value))
        if point.solution is None:
            print(f"{value:>14}  infeasible")
            continue
        s = point.solution
        print(
            f"{value:>14}  access={s.access_time * 1e9:.3f} ns  "
            f"E_rd={s.e_read_nj:.3f} nJ  area={s.area_mm2:.2f} mm2  "
            f"eff={s.area_efficiency * 100:.1f}%"
        )
    print()
    print(result.report())
    _print_failures(result.failed)
    _report_obs(args, obs)
    return 0


def _split_list(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


def _run_cachedb(args: argparse.Namespace) -> int:
    # Queries and info read the artifact only; the builder (and the
    # solver stack behind it) loads for ``build`` alone.
    from repro.cachedb.reader import CacheDB

    if args.cachedb_command == "build":
        from repro.cachedb.builder import build_cachedb
        from repro.cachedb.schema import GridSpec

        grid = GridSpec(
            capacities_bytes=tuple(
                parse_size(v) for v in _split_list(args.capacities)
            ),
            associativities=tuple(
                int(v) for v in _split_list(args.assocs)
            ),
            block_bytes=tuple(
                parse_size(v) for v in _split_list(args.blocks)
            ),
            nodes_nm=tuple(float(v) for v in _split_list(args.nodes)),
            technologies=(
                tuple(_split_list(args.techs))
                if args.techs is not None
                else ()
            ),
        )
        solve_cache, obs, resilience = _solver_knobs(args)
        report = build_cachedb(
            args.path,
            grid,
            target=_PRESETS[args.optimize],
            jobs=args.jobs,
            resilience=resilience,
            solve_cache=solve_cache,
            obs=obs,
        )
        print(report.summary())
        _report_obs(args, obs)
        return 0

    if args.cachedb_command == "query":
        db = CacheDB(args.path)
        result = db.query(
            args.capacity,
            associativity=args.assoc,
            block_bytes=args.block,
            node_nm=args.node,
            cell_tech=args.tech,
            fallback=args.fallback,
        )
        print(result.summary())
        return 0

    # info: inspectable even across model versions.
    db = CacheDB(args.path, check_model=False)
    for key, value in db.info().items():
        print(f"{key:<14}: {value}")
    return 0


_HANDLERS = {
    "cache": _run_cache,
    "main-memory": _run_main_memory,
    "validate-ddr3": _run_validate,
    "table3": _run_table3,
    "study": _run_study,
    "sweep": _run_sweep,
    "cachedb": _run_cachedb,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, NoFeasibleSolution, OSError) as exc:
        # NoFeasibleSolution subclasses RuntimeError, not ValueError: an
        # infeasible request must still exit cleanly, not dump a traceback.
        # OSError covers an unwritable --cache path.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
