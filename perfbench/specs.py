"""Optimization presets by their CLI names, and what a ``cold_cli`` op
asks the CLI (kept light: the traced probe imports it in every
process)."""

from __future__ import annotations

from repro.core.config import (
    DENSITY_OPTIMIZED,
    ENERGY_DELAY_OPTIMIZED,
    MemorySpec,
    OptimizationTarget,
)

PRESETS = {
    "balanced": OptimizationTarget(),
    "density": DENSITY_OPTIMIZED,
    "energy-delay": ENERGY_DELAY_OPTIMIZED,
}


def spec_of(op) -> tuple[MemorySpec, OptimizationTarget]:
    """The solve a ``cache`` op asks for, and its target."""
    if op[0] == "cachedb":
        tech, cap, assoc, node = op[1]
        return (MemorySpec(capacity_bytes=cap, block_bytes=64,
                           associativity=assoc, node_nm=node,
                           cell_tech=tech), OptimizationTarget())
    tech, cap, block, assoc, node, preset = op[1]
    return (MemorySpec(capacity_bytes=cap, block_bytes=block,
                       associativity=assoc or None, node_nm=node,
                       cell_tech=tech), PRESETS[preset])


def cli_args(op, db: str, store: str) -> list[str]:
    kind, point = op
    if kind == "query":
        tech, cap, assoc, node = point
        return ["cachedb", "query", db, "--capacity", str(cap),
                "--assoc", str(assoc), "--block", "64",
                "--node", f"{node:g}", "--tech", tech]
    if kind == "cachedb":
        tech, cap, assoc, node = point
        return ["cache", "--capacity", str(cap), "--block", "64",
                "--assoc", str(assoc), "--node", f"{node:g}",
                "--tech", tech, "--cachedb", db, "--jobs", "1"]
    tech, cap, block, assoc, node, preset = point
    args = ["cache", "--capacity", str(cap), "--block", str(block),
            "--assoc", str(assoc), "--node", f"{node:g}", "--tech", tech,
            "--optimize", preset, "--jobs", "1"]
    if kind == "sqlite":
        args += ["--cache", f"sqlite:{store}"]
    return args
