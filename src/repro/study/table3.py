"""Table 3: the LLC study's memory-hierarchy configurations at 32 nm.

Builds the six system configurations of the paper's study -- nol3, sram
(24 MB), lp_dram_ed (48 MB), lp_dram_c (72 MB), cm_dram_ed (96 MB),
cm_dram_c (192 MB) -- in two ways:

* ``solve_table3()`` runs this reproduction's CACTI-D end-to-end for every
  structure (L1, L2, the five L3 options, the 8 Gb DDR4-3200 chip) and
  derives the architectural parameters exactly as the paper does: cache
  clocks limited to at most 6 pipeline stages, access/cycle times
  quantized to CPU cycles.
* ``paper_table3()`` returns the values printed in the paper, for
  side-by-side comparison and as a fast path for the simulator.

The per-bank area budget is 6.2 mm^2 (1/8th of the scaled core die,
section 3.1); capacities per technology come from what fits that budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.array.mainmem import MainMemorySpec
from repro.circuits.crossbar import design_crossbar
from repro.core.cacti import solve, solve_main_memory
from repro.core.config import (
    DENSITY_OPTIMIZED,
    ENERGY_DELAY_OPTIMIZED,
    MemorySpec,
    OptimizationTarget,
)
from repro.models.timing_dram import DDR4_3200, quantize, to_main_memory_timing
from repro.power.hierarchy import (
    HierarchyEnergyModel,
    LevelEnergy,
    MainMemoryEnergy,
)
from repro.sim.cache import CacheConfig
from repro.sim.dram_channel import MemoryTimingCycles
from repro.sim.system import L3Config, SystemConfig
from repro.tech.cells import CellTech
from repro.tech.nodes import technology

CPU_HZ = 2e9
NODE_NM = 32.0

#: Maximum pipeline depth inside any cache (paper section 4.1).
MAX_PIPELINE_STAGES = 6

#: The study's six configurations, in the paper's plotting order.
CONFIG_NAMES = (
    "nol3",
    "sram",
    "lp_dram_ed",
    "lp_dram_c",
    "cm_dram_ed",
    "cm_dram_c",
)


@dataclass(frozen=True)
class Table3Row:
    """One column of paper Table 3."""

    name: str
    capacity_bytes: int
    nbanks: int
    subbanks: int
    associativity: int
    clock_divider: int  #: cache clock = CPU clock / divider
    access_cycles: int  #: CPU cycles
    cycle_cycles: int  #: CPU cycles (effective issue pitch per bank)
    area_mm2: float  #: per bank (caches) or per chip (main memory)
    area_efficiency: float
    leakage_w: float  #: whole structure
    refresh_w: float
    e_read_nj: float  #: per cache-line read
    e_write_nj: float = 0.0
    interleave_cycles: int = 0  #: multisubbank interleave pitch (CPU cyc)
    random_cycles: int = 0  #: same-subbank row cycle (CPU cyc)
    rows_per_subarray: int = 0  #: physical rows per subarray (0 = n/a)


#: L3 design points: (name, capacity, associativity, cell tech, optimizer).
_L3_POINTS = {
    "sram": (24 << 20, 12, CellTech.SRAM, OptimizationTarget()),
    "lp_dram_ed": (48 << 20, 12, CellTech.LP_DRAM, ENERGY_DELAY_OPTIMIZED),
    "lp_dram_c": (72 << 20, 18, CellTech.LP_DRAM, DENSITY_OPTIMIZED),
    "cm_dram_ed": (96 << 20, 12, CellTech.COMM_DRAM, ENERGY_DELAY_OPTIMIZED),
    "cm_dram_c": (192 << 20, 24, CellTech.COMM_DRAM, DENSITY_OPTIMIZED),
}


def _cycles(t_seconds: float, divider: int = 1) -> int:
    """Round a latency up to CPU cycles, in multiples of the cache clock."""
    cpu_cycles = t_seconds * CPU_HZ
    return max(divider, divider * math.ceil(cpu_cycles / divider - 1e-9))


def _clock_divider(access_time: float) -> int:
    """Cache clock divider so the access pipelines into <= 6 stages."""
    cpu_period = 1.0 / CPU_HZ
    return max(1, math.ceil(access_time / (MAX_PIPELINE_STAGES * cpu_period)))


def _cache_row(name: str, solution, nbanks: int) -> Table3Row:
    spec = solution.spec
    divider = _clock_divider(solution.access_time)
    org = solution.data.org
    subbanks = org.ndbl
    interleave = max(
        solution.interleave_cycle_time, divider / CPU_HZ
    )
    conflict = 1.0 / max(subbanks, 1)
    effective_cycle = (
        (1.0 - conflict) * interleave
        + conflict * solution.random_cycle_time
    )
    return Table3Row(
        name=name,
        capacity_bytes=spec.capacity_bytes,
        nbanks=nbanks,
        subbanks=subbanks,
        associativity=spec.associativity or 1,
        clock_divider=divider,
        access_cycles=_cycles(solution.access_time, divider),
        cycle_cycles=_cycles(effective_cycle, 1),
        area_mm2=solution.area_mm2 / nbanks,
        area_efficiency=solution.area_efficiency,
        leakage_w=solution.p_leakage,
        refresh_w=solution.p_refresh,
        e_read_nj=solution.e_read_nj,
        e_write_nj=solution.e_write_nj,
        interleave_cycles=_cycles(interleave, 1),
        random_cycles=_cycles(solution.random_cycle_time, 1),
        rows_per_subarray=solution.data.rows,
    )


#: Memo of knob-free row solves (the lru_cache equivalent).  Knobbed
#: calls bypass it: a caller passing ``obs``/``solve_cache``
#: expects a live solve feeding those sinks, not a silent memo hit --
#: and a memoized knobbed result would leak one caller's cache handle
#: into the next caller's run.
_ROW_MEMO: dict[str, object] = {}


def _memoized(key: str, build):
    row = _ROW_MEMO.get(key)
    if row is None:
        row = _ROW_MEMO[key] = build()
    return row


def _l1_row(**knobs) -> Table3Row:
    s = solve(MemorySpec(capacity_bytes=32 << 10, block_bytes=64,
                         associativity=8, node_nm=NODE_NM), **knobs)
    return _cache_row("L1", s, nbanks=1)


def solve_l1(**knobs) -> Table3Row:
    if knobs:
        return _l1_row(**knobs)
    return _memoized("L1", _l1_row)


def _l2_row(**knobs) -> Table3Row:
    s = solve(MemorySpec(capacity_bytes=1 << 20, block_bytes=64,
                         associativity=8, node_nm=NODE_NM), **knobs)
    return _cache_row("L2", s, nbanks=1)


def solve_l2(**knobs) -> Table3Row:
    if knobs:
        return _l2_row(**knobs)
    return _memoized("L2", _l2_row)


def _l3_row(name: str, **knobs) -> Table3Row:
    capacity, assoc, cell_tech, target = _L3_POINTS[name]
    s = solve(
        MemorySpec(
            capacity_bytes=capacity,
            block_bytes=64,
            associativity=assoc,
            nbanks=8,
            node_nm=NODE_NM,
            cell_tech=cell_tech,
            sleep_transistors=cell_tech.traits.sleep_transistors_effective,
        ),
        target,
        **knobs,
    )
    return _cache_row(name, s, nbanks=8)


def solve_l3(name: str, **knobs) -> Table3Row:
    if knobs:
        return _l3_row(name, **knobs)
    return _memoized(name, lambda: _l3_row(name))


def solve_main_memory_chip(**knobs):
    """The 8 Gb DDR4-3200 x8 device at 32 nm."""
    if knobs:
        return _main_memory_chip(**knobs)
    return _memoized("main_chip", _main_memory_chip)


def _main_memory_chip(**knobs):
    spec = MainMemorySpec(capacity_bits=8 * 2**30, page_bits=8192)
    # The cachedb grid only covers cache/RAM specs, not the main-memory
    # interface derivation, so that knob stops here.
    knobs = {k: v for k, v in knobs.items() if k != "cachedb"}
    return solve_main_memory(spec, node_nm=NODE_NM, **knobs)


def main_memory_row(**knobs) -> Table3Row:
    if knobs:
        return _main_row(**knobs)
    return _memoized("main", _main_row)


def _main_row(**knobs) -> Table3Row:
    mm = solve_main_memory_chip(**knobs)
    sheet = quantize(mm.timing, DDR4_3200)
    timing = to_main_memory_timing(sheet, burst_length=8)
    return Table3Row(
        name="main",
        capacity_bytes=2**30,  # 8 Gb
        nbanks=8,
        subbanks=mm.metrics.org.ndbl,
        associativity=1,
        clock_divider=16,
        access_cycles=_cycles(timing.t_rcd + timing.t_cas),
        cycle_cycles=_cycles(timing.t_rc),
        area_mm2=mm.area_mm2,
        area_efficiency=mm.area_efficiency,
        leakage_w=mm.energies.p_standby,
        refresh_w=mm.energies.p_refresh,
        e_read_nj=(mm.energies.e_activate + mm.energies.e_read) * 8 * 1e9,
        e_write_nj=(mm.energies.e_activate + mm.energies.e_write) * 8 * 1e9,
    )


def solve_table3(**knobs) -> dict[str, Table3Row]:
    """All Table 3 columns from the live CACTI-D model.

    Keyword knobs (``solve_cache``, ``obs``, ``cachedb``) pass through
    to every underlying cache solve (``cachedb`` stops before the
    main-memory chip, whose interface derivation the grid does not
    cover); knob-free calls are memoized.

    A ``resilience`` policy carrying a journal checkpoints the table at
    row granularity (stage ``"table3.row"``): each solved row is
    recorded as it completes, and a re-run against the same journal
    restores the finished rows without re-solving them -- an
    interrupted table resumes where it stopped.  The policy's fault
    plan fires at each row boundary (in the parent, so an injected
    ``kill`` degrades to an exception), which is how the test harness
    interrupts a table mid-build deterministically.
    """
    resilience = knobs.pop("resilience", None)
    journal = resilience.journal if resilience is not None else None
    builders = [
        ("L1", lambda: solve_l1(**knobs)),
        ("L2", lambda: solve_l2(**knobs)),
        *[
            (name, lambda name=name: solve_l3(name, **knobs))
            for name in _L3_POINTS
        ],
        ("main", lambda: main_memory_row(**knobs)),
    ]
    rows: dict[str, Table3Row] = {}
    for index, (name, build) in enumerate(builders):
        key = None
        if journal is not None:
            from repro.core.resilience import task_key

            key = task_key("table3.row", {"row": name, "node_nm": NODE_NM})
            if key in journal:
                rows[name] = journal.result(key)
                continue
        if resilience is not None and resilience.fault_plan is not None:
            resilience.fault_plan.fire("table3.row", index, attempt=1)
        row = build()
        if key is not None:
            journal.record(key, "table3.row", row)
        rows[name] = row
    return rows


def paper_table3() -> dict[str, Table3Row]:
    """The values printed in paper Table 3, for comparison."""
    rows = [
        Table3Row("L1", 32 << 10, 1, 1, 8, 1, 2, 1, 0.17, 0.25, 0.009, 0.0,
                  0.07),
        Table3Row("L2", 1 << 20, 1, 4, 8, 1, 3, 1, 2.0, 0.67, 0.157, 0.0,
                  0.27),
        Table3Row("sram", 24 << 20, 8, 4, 12, 1, 5, 1, 6.2, 0.64, 3.6, 0.0,
                  0.54),
        Table3Row("lp_dram_ed", 48 << 20, 8, 32, 12, 1, 5, 1, 5.7, 0.36,
                  2.0, 0.3, 0.54),
        Table3Row("lp_dram_c", 72 << 20, 8, 16, 18, 1, 7, 3, 6.0, 0.51,
                  2.1, 0.12, 0.59),
        Table3Row("cm_dram_ed", 96 << 20, 8, 64, 12, 3, 16, 5, 4.8, 0.30,
                  0.015, 0.00018, 0.6),
        Table3Row("cm_dram_c", 192 << 20, 8, 32, 24, 4, 21, 10, 6.2, 0.47,
                  0.026, 0.001, 0.92),
        Table3Row("main", 1 << 30, 8, 64, 1, 16, 61, 98, 115.0, 0.46,
                  0.091, 0.009, 14.2),
    ]
    return {r.name: r for r in rows}


# --------------------------------------------------------------------- #
# Simulator + power-model wiring


def _memory_timing_cycles(source: str) -> MemoryTimingCycles:
    if source == "cacti":
        mm = solve_main_memory_chip()
        sheet = quantize(mm.timing, DDR4_3200)
        timing = to_main_memory_timing(sheet, burst_length=8)
        return MemoryTimingCycles.from_chip(timing, CPU_HZ)
    # Paper values: access = tRCD + CL = 61 CPU cycles, tRC = 98 cycles.
    return MemoryTimingCycles(
        t_rcd=30.0,
        t_cas=31.0,
        t_rp=28.0,
        t_ras=70.0,
        t_rc=98.0,
        t_rrd=15.0,
        t_burst=5.0,
    )


def build_system_config(
    name: str, source: str = "paper", scale: int = 16, cachedb=None
) -> SystemConfig:
    """One simulator configuration, capacities scaled by ``scale``.

    ``source`` selects where latencies come from: ``"cacti"`` runs this
    reproduction's solver (the paper's own flow), ``"paper"`` uses the
    published Table 3 numbers.  ``cachedb`` (a
    :class:`~repro.cachedb.CacheDB`) lets the cacti path serve exact
    precomputed solves instead of solving live.
    """
    if source == "paper":
        rows = paper_table3()
    elif cachedb is not None:
        rows = solve_table3(cachedb=cachedb)
    else:
        rows = solve_table3()
    l1r, l2r = rows["L1"], rows["L2"]
    l1 = CacheConfig(
        capacity_bytes=max(l1r.capacity_bytes // scale, 1024),
        block_bytes=64,
        associativity=l1r.associativity,
        access_cycles=l1r.access_cycles,
    )
    l2 = CacheConfig(
        capacity_bytes=max(l2r.capacity_bytes // scale, 4096),
        block_bytes=64,
        associativity=l2r.associativity,
        access_cycles=l2r.access_cycles,
    )
    l3 = None
    if name != "nol3":
        row = rows[name]
        if source == "cacti" and row.subbanks > 1:
            # Explicit multisubbank interleaving: the shared bus pitches
            # at the interleave cycle; a busy subbank stalls reuse for
            # its full (destructive-read) row cycle.
            l3 = L3Config(
                capacity_bytes=row.capacity_bytes // scale,
                associativity=row.associativity,
                access_cycles=row.access_cycles,
                bank_cycle=max(row.interleave_cycles, 1),
                nbanks=row.nbanks,
                subbanks=row.subbanks,
                subbank_cycle=row.random_cycles,
            )
        else:
            # The published Table 3 cycle is already the effective pitch.
            l3 = L3Config(
                capacity_bytes=row.capacity_bytes // scale,
                associativity=row.associativity,
                access_cycles=row.access_cycles,
                bank_cycle=row.cycle_cycles,
                nbanks=row.nbanks,
            )
    return SystemConfig(
        name=name,
        l1=l1,
        l2=l2,
        l3=l3,
        memory=_memory_timing_cycles(source),
        cpu_hz=CPU_HZ,
    )


@lru_cache(maxsize=None)
def _crossbar_metrics():
    # The crossbar sits on the core die; long-channel devices keep its
    # standby power negligible next to the caches it connects.
    return design_crossbar(technology(NODE_NM), 8, 8, 512,
                           device_type="hp-long-channel")


def build_energy_model(name: str, source: str = "paper", cachedb=None
                       ) -> HierarchyEnergyModel:
    """The Figure 5(a) energy model for one configuration."""
    if source == "paper":
        rows = paper_table3()
    elif cachedb is not None:
        rows = solve_table3(cachedb=cachedb)
    else:
        rows = solve_table3()
    l1r, l2r = rows["L1"], rows["L2"]

    def level(row: Table3Row, instances: int) -> LevelEnergy:
        e_read = row.e_read_nj * 1e-9
        e_write = (row.e_write_nj or row.e_read_nj) * 1e-9
        return LevelEnergy(
            e_read=e_read,
            e_write=e_write,
            p_leakage=row.leakage_w * instances,
            p_refresh=row.refresh_w * instances,
        )

    l3 = None
    if name != "nol3":
        l3 = level(rows[name], 1)

    if source == "cacti":
        mm = solve_main_memory_chip()
        memory = MainMemoryEnergy(
            e_activate=mm.energies.e_activate,
            e_read=mm.energies.e_read,
            e_write=mm.energies.e_write,
            p_standby=mm.energies.p_standby,
            p_refresh=mm.energies.p_refresh,
        )
    else:
        row = rows["main"]
        # Table 3's 14.2 nJ covers the full 8-chip line read incl. ACT.
        memory = MainMemoryEnergy(
            e_activate=0.6e-9,
            e_read=row.e_read_nj * 1e-9 / 8 - 0.6e-9,
            e_write=row.e_read_nj * 1e-9 / 8 - 0.6e-9,
            p_standby=row.leakage_w,
            p_refresh=row.refresh_w,
        )
    xbar = _crossbar_metrics()
    return HierarchyEnergyModel(
        l1=level(l1r, 16),
        l2=level(l2r, 8),
        crossbar_e_transfer=xbar.energy_per_transfer(),
        crossbar_p_leakage=xbar.leakage,
        l3=l3,
        memory=memory,
    )
