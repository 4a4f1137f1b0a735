"""``sweep``: a seeded stream of design-space sweep requests.

Each request is one ``solve_batch(jobs=1)`` of specs that vary one axis
around a random base point, or (about one in eight) one main-memory
chip.  Every request shares one sqlite ``SolveCache`` that starts
empty, and about a quarter of the specs repeat earlier points, so the
store serves reads beside the writes of misses.  The first two
requests are fixed: the golden-triad solves and the DDR3 validation,
both checked bit for bit against ``tests/data/golden_triad.json``.

Why: the solver pipeline (``array``, ``circuits``, ``tech``, ``core``)
does almost all of the work here and ``store`` both reads and writes;
imports and ``sim`` do nothing once the run is set up.
"""

from __future__ import annotations

import random

from repro.array.mainmem import MainMemorySpec
from repro.core.cacti import solve, solve_batch, solve_main_memory
from repro.core.config import MemorySpec
from repro.core.optimizer import NoFeasibleSolution
from repro.core.solvecache import SolveCache, metrics_to_dict
from repro.tech.registry import registered_names
from repro.validation.compare import validate_ddr3

import golden as golden_file
import replay
from specs import PRESETS

TECHS = registered_names()
CAPACITIES = tuple((16 << 10) << k for k in range(13))  # 16 KB .. 64 MB
BLOCKS = (32, 64, 128)
ASSOCS = (0, 1, 2, 4, 8, 16)  # 0 is a plain RAM
NODES = (32.0, 38.0, 45.0, 50.0, 65.0, 78.0, 90.0)  # 38/50/78 interpolate
#: More sets than this leave some DRAM arrays with no feasible
#: organization; the space stays inside it so no request fails.
MAX_SETS = 1 << 18
AXES = ("capacity", "node", "assoc", "tech")
AXIS_WEIGHTS = (0.35, 0.30, 0.20, 0.15)
CHIP_FRACTION = 1 / 8
REPEAT_FRACTION = 0.25
CHIP_GBITS = (1, 2, 4, 8)
CHIP_PINS = (4, 8, 16)

#: Requests whose specs are re-solved from scratch after the timed loop.
RECHECK_EVERY = 8
RECHECK_MAX = 6

ROUND = 1
OP_PROCESSES = False
#: Nominal requests per second, which sizes the fixed traced op list.
TRACE_RATE = 12.0


def params(seed: int) -> dict:
    return {
        "seed": seed,
        "techs": list(TECHS),
        "capacities": [CAPACITIES[0], CAPACITIES[-1]],
        "blocks": list(BLOCKS),
        "assocs": list(ASSOCS),
        "nodes": list(NODES),
        "presets": list(PRESETS),
        "max_sets": MAX_SETS,
        "axes": dict(zip(AXES, AXIS_WEIGHTS)),
        "chip_fraction": CHIP_FRACTION,
        "repeat_fraction": REPEAT_FRACTION,
        "store": "sqlite, empty at start",
    }


def _valid(point) -> bool:
    _tech, cap, block, assoc, _node, _preset = point
    return cap // (block * max(assoc, 1)) <= MAX_SETS


def _vary(rng, base, axis):
    tech, cap, block, assoc, node, preset = base
    if axis == "capacity":
        i = CAPACITIES.index(cap)
        start = min(max(i - rng.randrange(8), 0), len(CAPACITIES) - 8)
        points = [(tech, c, block, assoc, node, preset)
                  for c in CAPACITIES[start:start + 8]]
    elif axis == "node":
        points = [(tech, cap, block, assoc, n, preset) for n in NODES]
    elif axis == "assoc":
        points = [(tech, cap, block, a, node, preset) for a in ASSOCS]
    else:
        other = rng.choice([n for n in NODES if n != node])
        points = [(t, cap, block, assoc, n, preset)
                  for n in (node, other) for t in TECHS]
    return [p for p in points if _valid(p)]


def ops(seed: int):
    """The endless seeded request stream (prefixes are stable)."""
    rng = random.Random(seed)
    yield ("golden",)
    yield ("ddr3",)
    seen: list = []
    seen_chips: list = []
    while True:
        if rng.random() < CHIP_FRACTION:
            if seen_chips and rng.random() < REPEAT_FRACTION:
                chip = rng.choice(seen_chips)
            else:
                chip = (rng.choice(CHIP_GBITS), rng.choice(CHIP_PINS),
                        rng.choice(NODES))
                seen_chips.append(chip)
            yield ("chip", chip)
            continue
        while True:
            base = (rng.choice(TECHS), rng.choice(CAPACITIES),
                    rng.choice(BLOCKS), rng.choice(ASSOCS),
                    rng.choice(NODES), rng.choice(tuple(PRESETS)))
            if _valid(base):
                break
        axis = rng.choices(AXES, AXIS_WEIGHTS)[0]
        batch = [
            rng.choice(seen) if seen and rng.random() < REPEAT_FRACTION
            else point
            for point in _vary(rng, base, axis)
        ]
        seen.extend(p for p in batch if p not in seen)
        yield ("batch", tuple(batch))


def _spec(point) -> MemorySpec:
    tech, cap, block, assoc, node, _preset = point
    return MemorySpec(capacity_bytes=cap, block_bytes=block,
                      associativity=assoc or None, node_nm=node,
                      cell_tech=tech)


def _chip(chip) -> MainMemorySpec:
    gbits, pins, _node = chip
    return MainMemorySpec(capacity_bits=gbits << 30, data_pins=pins)


def _golden_batch(golden):
    return ([MemorySpec(**r["spec"]) for r in golden["solves"]],
            [PRESETS[r["target"]] for r in golden["solves"]])


class Sweep:
    """State of one sweep run: the shared store and the answer checks."""

    def __init__(self, seed, tmp, golden, tr):
        self.golden = golden
        with tr.span("store.open"):
            self.cache = SolveCache(f"sqlite:{tmp}/sweep.db")
        self.first: dict = {}  # point -> digest of its first answer
        self.infeasible: list = []  # ops that raised NoFeasibleSolution
        self.ddr3_err_pct = None

    def close(self):
        self.cache.close()

    # -- untraced: the public API ------------------------------------ #

    def run(self, op):
        kind = op[0]
        if kind == "golden":
            specs, targets = _golden_batch(self.golden)
            return solve_batch(specs, targets, solve_cache=self.cache, jobs=1)
        if kind == "ddr3":
            return validate_ddr3()
        if kind == "chip":
            return solve_main_memory(_chip(op[1]), node_nm=op[1][2],
                                     solve_cache=self.cache, jobs=1)
        points = op[1]
        return solve_batch([_spec(p) for p in points],
                           [PRESETS[p[5]] for p in points],
                           solve_cache=self.cache, jobs=1)

    # -- traced: the same op, call by call --------------------------- #

    def replay(self, op, tr):
        kind = op[0]
        if kind == "golden":
            specs, targets = _golden_batch(self.golden)
            return replay.solve_batch(tr, specs, targets, self.cache)
        if kind == "ddr3":
            with tr.span("validation.ddr3"):
                return validate_ddr3()
        if kind == "chip":
            return replay.solve_main_memory(tr, _chip(op[1]), op[1][2],
                                            self.cache)
        points = op[1]
        return replay.solve_batch(tr, [_spec(p) for p in points],
                                  [PRESETS[p[5]] for p in points],
                                  self.cache)

    # -- checks ------------------------------------------------------ #

    def digest(self, op, answer) -> str:
        if op[0] == "ddr3":
            return replay.digest(golden_file.ddr3_record(answer))
        if op[0] == "chip":
            return replay.digest(answer)
        return ",".join(replay.digest(s) for s in answer)

    def check(self, index, op, answer) -> list[str]:
        """Problems with one answer (empty when it is right)."""
        if isinstance(answer, NoFeasibleSolution):
            self.infeasible.append(op)
            return []
        kind = op[0]
        if kind == "golden":
            problems = []
            reencode = golden_file.reencode
            for record, solution in zip(self.golden["solves"], answer):
                tag = (reencode(metrics_to_dict(solution.tag))
                       if solution.tag is not None else None)
                if (reencode(metrics_to_dict(solution.data))
                        != record["data"] or tag != record["tag"]):
                    problems.append(f"golden solve {record['id']} differs")
            return problems
        if kind == "ddr3":
            self.ddr3_err_pct, problems = golden_file.check_ddr3(
                self.golden, answer)
            return problems
        keyed = ([(op[1], answer)] if kind == "chip"
                 else list(zip(op[1], answer)))
        problems = []
        for point, solution in keyed:
            d = replay.digest(solution)
            first = self.first.setdefault(point, d)
            if first != d:
                problems.append(f"store hit for {point} differs from the "
                                "solve that wrote it")
        return problems

    def finish(self, done_ops) -> list[str]:
        """Checks after the timed loop: a sample of answers re-solved
        from scratch, and determinism of any infeasible request."""
        problems = []
        batches = [op for op in done_ops if op[0] == "batch"]
        for op in batches[RECHECK_EVERY // 2::RECHECK_EVERY][:RECHECK_MAX]:
            for point in op[1]:
                if point not in self.first:
                    continue
                fresh = solve(_spec(point), PRESETS[point[5]])
                if replay.digest(fresh) != self.first[point]:
                    problems.append(f"{point} differs from a fresh solve")
        for op in self.infeasible:
            try:
                self.run_fresh(op)
            except NoFeasibleSolution:
                continue
            problems.append(f"{op} raised NoFeasibleSolution only once")
        return problems

    def run_fresh(self, op):
        points = op[1]
        if op[0] == "chip":
            return solve_main_memory(_chip(points), node_nm=points[2])
        return solve_batch([_spec(p) for p in points],
                           [PRESETS[p[5]] for p in points])

    def extras(self, op_seconds: float) -> dict:
        return {}

    def pass_counts(self) -> dict:
        """Counts the public objects keep anyway, to cross-check the
        replay's counts."""
        return {"store.hits": self.cache.hits,
                "store.misses": self.cache.misses}
