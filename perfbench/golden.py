"""The recorded golden answers every workload checks against."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

GOLDEN_PATH = Path("tests") / "data" / "golden_triad.json"


def load(root) -> dict:
    return json.loads((Path(root) / GOLDEN_PATH).read_text())


def reencode(payload):
    """One JSON round trip, the normalization the golden file went through."""
    return json.loads(json.dumps(payload))


def ddr3_record(validation) -> dict:
    """A ``validate_ddr3`` result in the golden file's layout."""
    return {
        "errors": dict(validation.errors),
        "timing": dataclasses.asdict(validation.solution.timing),
        "energies": dataclasses.asdict(validation.solution.energies),
        "area_efficiency": validation.solution.area_efficiency,
    }


def check_ddr3(golden: dict, validation) -> tuple[float, list[str]]:
    """The mean |error| in percent, and whether the part is bit-identical."""
    problems = []
    if reencode(ddr3_record(validation)) != golden["ddr3"]:
        problems.append("DDR3 validation differs from the golden part")
    return validation.mean_abs_error * 100.0, problems
