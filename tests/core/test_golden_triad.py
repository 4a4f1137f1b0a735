"""Golden-equivalence gate for the technology-registry refactor.

``tests/data/golden_triad.json`` records bit-exact solved numbers for
the SRAM / LP-DRAM / COMM-DRAM triad -- representative cache solves,
the paper's Table-3 rows, and the DDR3 validation part -- captured
*before* the registry refactor (``tools/capture_golden.py``).  These
tests re-solve the same inputs through the current code and assert
field-for-field float equality, at several job counts: the registry is
a pure re-plumbing of the technology axis and must change no numbers.
The recorded solves run as one ``solve_batch`` per job count, so at
jobs 2 and 4 they are solved by worker processes.

JSON round-trips are exact (shortest-repr floats), so ``==`` on the
re-encoded dicts is bit-identity, not approximation.
"""

import dataclasses
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core.cacti import solve_batch
from repro.core.config import (
    DENSITY_OPTIMIZED,
    ENERGY_DELAY_OPTIMIZED,
    MemorySpec,
    OptimizationTarget,
)
from repro.core.solvecache import metrics_to_dict

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "data" / "golden_triad.json"
)
GOLDEN = json.loads(GOLDEN_PATH.read_text())

TARGETS = {
    "balanced": OptimizationTarget(),
    "density": DENSITY_OPTIMIZED,
    "energy-delay": ENERGY_DELAY_OPTIMIZED,
}


def reencode(payload):
    """One JSON round trip: the same normalization the golden file had."""
    return json.loads(json.dumps(payload))


def golden_batch() -> tuple[list, list]:
    """The recorded solves as (specs, targets).

    The spec kwargs in the golden file use registry *names* for the
    technologies; MemorySpec resolves them, so solving them exercises
    the full name -> handle -> traits path.
    """
    specs = [MemorySpec(**r["spec"]) for r in GOLDEN["solves"]]
    targets = [TARGETS[r["target"]] for r in GOLDEN["solves"]]
    return specs, targets


@lru_cache(maxsize=None)
def solved_at(jobs: int) -> tuple:
    """Every recorded solve, as one batch at ``jobs`` (solved once)."""
    return tuple(solve_batch(*golden_batch(), jobs=jobs))


def assert_matches(solution, record) -> None:
    assert reencode(metrics_to_dict(solution.data)) == record["data"]
    tag = (
        reencode(metrics_to_dict(solution.tag))
        if solution.tag is not None else None
    )
    assert tag == record["tag"]


@pytest.mark.parametrize("jobs", [1, 2, 4])
@pytest.mark.parametrize(
    "record", GOLDEN["solves"], ids=[r["id"] for r in GOLDEN["solves"]]
)
def test_solves_match_golden(record, jobs):
    """Every recorded solve reproduces bit-identically at any job count."""
    solution = solved_at(jobs)[GOLDEN["solves"].index(record)]
    assert_matches(solution, record)


@pytest.mark.parametrize("jobs", [1, 2, 4])
@pytest.mark.parametrize("backend", ["json", "sqlite"])
def test_solves_match_golden_through_either_store(backend, jobs, tmp_path):
    """A persistent solve store must be numerically invisible: solving
    the golden triad through either backend (cold, then warm from the
    store) reproduces the recorded numbers bit-identically at any job
    count."""
    from repro.core.solvecache import SolveCache

    store = (
        str(tmp_path / "solves.json") if backend == "json"
        else f"sqlite:{tmp_path / 'solves.db'}"
    )
    for _round in ("cold", "warm"):
        cache = SolveCache(store)
        solutions = solve_batch(*golden_batch(), solve_cache=cache, jobs=jobs)
        for solution, record in zip(solutions, GOLDEN["solves"]):
            assert_matches(solution, record)
        cache.close()


def test_table3_matches_golden():
    from repro.study.table3 import solve_table3

    rows = {
        name: reencode(dataclasses.asdict(row))
        for name, row in solve_table3().items()
    }
    assert rows == GOLDEN["table3"]


def test_ddr3_validation_matches_golden():
    from repro.validation.compare import validate_ddr3

    v = validate_ddr3()
    assert reencode(dict(v.errors)) == GOLDEN["ddr3"]["errors"]
    assert (
        reencode(dataclasses.asdict(v.solution.timing))
        == GOLDEN["ddr3"]["timing"]
    )
    assert (
        reencode(dataclasses.asdict(v.solution.energies))
        == GOLDEN["ddr3"]["energies"]
    )
    assert (
        reencode(v.solution.area_efficiency)
        == GOLDEN["ddr3"]["area_efficiency"]
    )
