"""``cold_cli``: fresh ``python -m repro`` processes, one after another.

A host toolchain starts a new process per query.  Each op here is one
CLI process, timed from spawn to exit.  Every block of 40 ops, shuffled
by the seed, holds 14 live ``cache`` solves, 14 ``cachedb query`` calls
(7 on the grid, 7 interpolated) against an artifact built in set-up, 6
``cache --cachedb`` exact hits and 6 ``cache --cache sqlite:...`` hits
on a store filled in set-up.

Why: process start and imports dominate every op, the artifact load
and the store open are visible, and the solver is a small share;
``store`` and ``cachedb`` are only read (a sqlite hit still writes its
LRU stamp), the opposite of ``sweep``.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

from repro.cachedb import CacheDB, GridSpec, build_cachedb
from repro.core.cacti import solve, solve_batch
from repro.core.solvecache import SolveCache
from repro.tech.registry import registered_names
from repro.validation.compare import validate_ddr3

import golden as golden_file
import replay
from specs import PRESETS, cli_args, spec_of

TECHS = registered_names()

#: The cachedb artifact built in set-up (balanced preset, 64 B blocks).
GRID_CAPACITIES = tuple((32 << 10) << k for k in range(6))  # 32 KB .. 1 MB
GRID_NODES = (32.0, 45.0, 65.0)
GRID_ASSOCS = (4, 8)
#: Off-grid query coordinates that interpolate inside the grid.
INTERP_CAPACITIES = tuple(c * 3 // 2 for c in GRID_CAPACITIES[:-1])
INTERP_NODES = (38.0, 50.0)

#: Live solves draw from a small-array space so the solver stays a
#: minor share of each process.
LIVE_CAPACITIES = tuple((16 << 10) << k for k in range(8))  # 16 KB .. 2 MB
LIVE_BLOCKS = (32, 64, 128)
LIVE_ASSOCS = (0, 2, 4, 8, 16)
LIVE_NODES = (32.0, 38.0, 45.0, 50.0, 65.0, 78.0, 90.0)
STORE_POINTS = 12  # specs solved into the sqlite store in set-up

#: Ops per block of 40, shuffled within the block, so every seed runs
#: the same mix: 35% live solves, 35% queries (half of them off-grid),
#: 15% cachedb hits and 15% sqlite hits.
BLOCK = (("solve", 14), ("exact", 7), ("interp", 7), ("cachedb", 6),
         ("sqlite", 6))

ROUND = 1
OP_PROCESSES = True
#: Nominal CLI processes per second, which sizes the fixed traced list.
TRACE_RATE = 2.5

PROCESS_TIMEOUT_S = 60


def params(seed: int) -> dict:
    return {
        "seed": seed,
        "block": dict(BLOCK),
        "grid": {"techs": list(TECHS),
                 "capacities": list(GRID_CAPACITIES),
                 "nodes": list(GRID_NODES), "assocs": list(GRID_ASSOCS),
                 "blocks": [64], "preset": "balanced"},
        "interp": {"capacities": list(INTERP_CAPACITIES),
                   "nodes": list(INTERP_NODES)},
        "store_points": STORE_POINTS,
        "live": {"capacities": [LIVE_CAPACITIES[0], LIVE_CAPACITIES[-1]],
                 "blocks": list(LIVE_BLOCKS), "assocs": list(LIVE_ASSOCS),
                 "nodes": list(LIVE_NODES)},
    }


def _live_point(rng):
    return (rng.choice(TECHS), rng.choice(LIVE_CAPACITIES),
            rng.choice(LIVE_BLOCKS), rng.choice(LIVE_ASSOCS),
            rng.choice(LIVE_NODES), rng.choice(tuple(PRESETS)))


def _grid_point(rng):
    return (rng.choice(TECHS), rng.choice(GRID_CAPACITIES),
            rng.choice(GRID_ASSOCS), rng.choice(GRID_NODES))


def store_points(seed: int) -> list:
    rng = random.Random(f"store-{seed}")
    return [_live_point(rng) for _ in range(STORE_POINTS)]


def ops(seed: int):
    """The endless seeded op stream (prefixes are stable)."""
    rng = random.Random(seed)
    stored = store_points(seed)
    block = [kind for kind, n in BLOCK for _ in range(n)]
    while True:
        rng.shuffle(block)
        for kind in block:
            if kind == "solve":
                yield ("solve", _live_point(rng))
            elif kind == "sqlite":
                yield ("sqlite", rng.choice(stored))
            elif kind == "cachedb":
                yield ("cachedb", _grid_point(rng))
            else:
                tech, cap, assoc, node = _grid_point(rng)
                if kind == "interp":
                    if rng.random() < 0.5:
                        cap = rng.choice(INTERP_CAPACITIES)
                    else:
                        node = rng.choice(INTERP_NODES)
                yield ("query", (tech, cap, assoc, node))


class ColdCli:
    """State of one cold-CLI run: the artifact, the store, the checks."""

    def __init__(self, seed, tmp, golden, tr):
        self.golden = golden
        self.root = Path(__file__).resolve().parent.parent
        self.db = str(Path(tmp) / "designs.json")
        self.store = str(Path(tmp) / "solves.db")
        grid = GridSpec(capacities_bytes=GRID_CAPACITIES,
                        associativities=GRID_ASSOCS, block_bytes=(64,),
                        nodes_nm=GRID_NODES, technologies=TECHS)
        with tr.span("cachedb.build"):
            build_cachedb(self.db, grid, jobs=1)
        points = store_points(seed)
        cache = SolveCache(f"sqlite:{self.store}")
        specs = [spec_of(("sqlite", p)) for p in points]
        with tr.span("store.fill"):
            solve_batch([s for s, _ in specs], [t for _, t in specs],
                        solve_cache=cache, jobs=1)
        cache.close()
        self.outputs: dict = {}  # op -> first stdout seen
        self.sources = {"exact": 0, "interpolated": 0, "solve": 0,
                        "nearest": 0}
        self.ddr3_err_pct = None

    def close(self):
        pass

    def _spawn(self, argv):
        # Children inherit PYTHONPATH, which points at the source tree.
        return subprocess.run(argv, cwd=self.root,
                              capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)

    def run(self, op):
        argv = [sys.executable, "-m", "repro",
                *cli_args(op, self.db, self.store)]
        done = self._spawn(argv)
        if done.returncode != 0:
            raise RuntimeError(f"{op}: exit {done.returncode}: "
                               f"{done.stderr.strip()[-300:]}")
        return done.stdout

    def replay(self, op, tr):
        """The same op in a fresh interpreter that times its imports and
        each layer call, then prints what the CLI would have printed."""
        request = {"op": op, "db": self.db, "store": self.store}
        probe = str(Path(__file__).resolve().parent / "cli_probe.py")
        request["spawned_at"] = time.perf_counter()
        done = self._spawn([sys.executable, probe, json.dumps(request)])
        if done.returncode != 0:
            raise RuntimeError(f"{op}: probe exit {done.returncode}: "
                               f"{done.stderr.strip()[-300:]}")
        text, _, last = done.stdout.rstrip("\n").rpartition("\n")
        report = json.loads(last)
        tr.adopt(report["spans"])
        for name, n in report["counts"].items():
            tr.count(name, n)
        return text + "\n"

    def digest(self, op, answer) -> str:
        return replay.digest(answer)

    def check(self, index, op, answer) -> list[str]:
        if op[0] == "query":
            for source in self.sources:
                if f"source          : {source}\n" in answer:
                    self.sources[source] += 1
        first = self.outputs.setdefault(op, answer)
        if first != answer:
            return [f"{op}: a repeated query printed another answer"]
        return []

    def finish(self, done_ops) -> list[str]:
        """Compare every distinct answer with the in-process result."""
        problems = []
        db = CacheDB(self.db)
        for op, printed in self.outputs.items():
            if op[0] == "query":
                tech, cap, assoc, node = op[1]
                expected = db.query(cap, associativity=assoc, block_bytes=64,
                                    node_nm=node, cell_tech=tech).summary()
            else:
                spec, target = spec_of(op)
                expected = solve(spec, target).summary()
            if printed != expected + "\n":
                problems.append(f"{op}: CLI answer differs from in-process")
        self.ddr3_err_pct, ddr3_problems = golden_file.check_ddr3(
            self.golden, validate_ddr3())
        return problems + ddr3_problems

    def extras(self, op_seconds: float) -> dict:
        return {}

    def pass_counts(self) -> dict:
        return {"cachedb.interpolated": self.sources["interpolated"],
                "cachedb.fallbacks": (self.sources["solve"]
                                      + self.sources["nearest"])}
