"""Vectorized survivor-batch evaluation kernels.

The optimizer scores every prefilter survivor of a spec -- ~12-15 % of
the enumerated grid, thousands of candidates per solve.  This module
computes those scores as numpy array arithmetic over all survivors at
once, without building per-candidate or per-subarray objects:

* :func:`survivor_batch` wraps the raw arrays of
  :func:`~repro.array.organization.survivor_arrays` (the vectorized
  structural pre-filter) without materializing ``OrgParams`` /
  ``OrgGeometry`` objects;
* :func:`subarray_table` computes the per-subarray quantities --
  geometry, bitline RC, sense/restore/precharge timing and energy,
  leakage, and the sense-feasible mask -- over every unique
  ``(rows, cols)`` shape as one array computation;
* :func:`evaluate_batch` gathers that table onto the candidates and
  composes bitline/sense/decode/H-tree delays, per-access energies,
  leakage, refresh power, and area as float64 arrays;
* :func:`rank_batch` applies the staged area/access-time constraints
  and the normalized weighted ranking on the arrays.

Full ``Subarray``/``HTree``/``ArrayMetrics`` objects are constructed
only for the winner(s) the caller materializes afterwards -- see
``repro.core.optimizer``.

Determinism / bit-identity contract
-----------------------------------
The scalar objects are the reference:
:class:`~repro.array.subarray.Subarray` for the table and
``organization._Builder`` for the composition.  Their arithmetic uses
only ``+ - * / max`` on float64 (plus exact int-to-float conversions),
and numpy performs the identical IEEE-754 operation elementwise, so
every kernel here mirrors the scalar expression *operation for
operation, in the same left-associative order*.  Transcendentals stay
scalar, because numpy's ``log``/``power``/``exp`` need not round like
:mod:`math`'s: the charge-share sense time takes ``math.log`` per
element, each feasible shape's row decoder (logical-effort sizing) is
designed by the scalar
:func:`~repro.circuits.decoder.design_decoder` through the memoized
driver chains, and H-tree levels use an exact integer ``frexp``
ceil-log2.  The result: ranking picks the same winner index the scalar
sweep picks, and the materialized winner is bit-identical.  The scalar
references these kernels are tested against are
:func:`~repro.core.optimizer.feasible_designs` and ``Subarray``
itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as _np

from repro.array.htree import BRANCH_BUFFER_FO4
from repro.array.organization import (
    _BANK_AREA_OVERHEAD,
    _COLMUX_FO4,
    _CONTROL_ENERGY_FRACTION,
    _CONTROL_LEAKAGE_FRACTION,
    _CONTROL_WIRES,
    MAX_COLS,
    ArraySpec,
    EvalCache,
    OrgGeometry,
    OrgParams,
    survivor_arrays,
)
from repro.array.subarray import (
    _DRIVER_STRIP_F,
    _PRECHARGE_WIDTH_F,
    _RESTORE_SLOWDOWN,
    _T_SETTLE,
    _T_SETTLE_PRECISE,
)
from repro.circuits.decoder import WordlineLoad, design_decoder
from repro.circuits.drivers import WireLoad
from repro.circuits.repeaters import repeated_wire
from repro.circuits.senseamp import (
    MIN_CHARGE_SHARE_SIGNAL,
    SenseAmp,
    charge_share_signal,
)
from repro.tech.cells import CellParams
from repro.tech.devices import TEMPERATURE_LEAKAGE_FACTOR
from repro.tech.nodes import Technology
from repro.tech.registry import SensingScheme


def enabled() -> bool:
    """Always True: the kernels are the optimizer's only evaluation path."""
    return True


@dataclass
class SurvivorBatch:
    """All prefilter survivors of one spec, as aligned arrays.

    Column-for-column the same data ``prefilter_grid`` returns as
    ``(OrgParams, OrgGeometry)`` tuples, in the same enumeration order,
    without the per-candidate objects.
    """

    spec: ArraySpec
    ndwl: "object"  #: int64 arrays, one entry per survivor
    ndbl: "object"
    nspd: "object"  #: float64
    ndcm: "object"
    ndsam: "object"
    rows: "object"
    cols: "object"
    nact: "object"
    sensed_bits: "object"
    sense_amps_per_sub: "object"

    @property
    def size(self) -> int:
        return int(self.ndwl.shape[0])

    def org_at(self, i: int) -> tuple[OrgParams, OrgGeometry]:
        """Materialize candidate ``i`` as the scalar path's objects."""
        return (
            OrgParams(
                int(self.ndwl[i]),
                int(self.ndbl[i]),
                float(self.nspd[i]),
                int(self.ndcm[i]),
                int(self.ndsam[i]),
            ),
            OrgGeometry(
                rows=int(self.rows[i]),
                cols=int(self.cols[i]),
                nact=int(self.nact[i]),
                sensed_bits=int(self.sensed_bits[i]),
                sense_amps_per_sub=int(self.sense_amps_per_sub[i]),
            ),
        )

    def candidates(self) -> list[tuple[OrgParams, OrgGeometry]]:
        """The full ``prefilter_grid``-shaped candidate list."""
        return [self.org_at(i) for i in range(self.size)]

    def take(self, idx) -> "SurvivorBatch":
        """A new batch holding the candidates at ``idx``, in order."""
        return SurvivorBatch(
            spec=self.spec,
            ndwl=self.ndwl[idx],
            ndbl=self.ndbl[idx],
            nspd=self.nspd[idx],
            ndcm=self.ndcm[idx],
            ndsam=self.ndsam[idx],
            rows=self.rows[idx],
            cols=self.cols[idx],
            nact=self.nact[idx],
            sensed_bits=self.sensed_bits[idx],
            sense_amps_per_sub=self.sense_amps_per_sub[idx],
        )


def survivor_batch(
    spec: ArraySpec,
    max_ndwl: int = 64,
    max_ndbl: int = 64,
    nspd_values: tuple[float, ...] | None = None,
    max_mux: int | None = None,
) -> SurvivorBatch:
    """The spec's prefilter survivors as arrays."""
    return SurvivorBatch(
        spec, *survivor_arrays(spec, max_ndwl, max_ndbl, nspd_values, max_mux)
    )


@dataclass
class EvaluatedBatch:
    """Per-candidate metric arrays for the *buildable* survivors.

    Candidates whose subarray fails the electrical sense-signal check
    (the only build-time feasibility gate past the structural
    pre-filter) are dropped; ``batch`` is compacted accordingly and
    ``n_infeasible`` counts the drops.  Every array mirrors the
    same-named :class:`~repro.array.organization.ArrayMetrics` field
    bit for bit.
    """

    batch: SurvivorBatch
    n_infeasible: int
    t_access: "object"
    t_random_cycle: "object"
    t_interleave: "object"
    e_activate: "object"
    e_read_column: "object"
    e_write_column: "object"
    e_precharge: "object"
    e_read_access: "object"
    p_leakage: "object"
    p_refresh: "object"
    area: "object"
    bank_width: "object"
    bank_height: "object"
    area_efficiency: "object"

    @property
    def size(self) -> int:
        return int(self.t_access.shape[0])


#: The subarray-table columns that depend only on an
#: :class:`~repro.array.organization.EvalCache` key -- ``(rows, cols)``,
#: cell technology, periphery and node -- in storage order.  The write
#: energy also depends on the spec's ``output_bits``, so it is derived
#: from ``blcap`` after the gather (:func:`write_bitline_energy`).
TABLE_COLUMNS = (
    "width", "height", "area", "cell_area", "blcap",
    "dec_delay", "wl_delay", "e_wordline", "t_bitline", "t_sense",
    "t_writeback", "t_precharge", "e_sense_per_pair",
    "leak_fixed", "amp_leak",
)
_COLUMN_INDEX = {name: j for j, name in enumerate(TABLE_COLUMNS)}


@dataclass
class SubarrayTable:
    """Per-shape subarray quantities, one row per ``(rows, cols)``.

    Row ``u`` of ``values`` holds, in :data:`TABLE_COLUMNS` order, what
    the same-shaped :class:`~repro.array.subarray.Subarray` reports
    (``blcap`` is its ``bitline_capacitance``; ``dec_delay``,
    ``wl_delay`` and ``e_wordline`` come from its decoder;
    ``amp_leak`` is one sense amp's leakage), bit for bit.  Rows that
    fail the charge-share sense-signal check are zero, with
    ``feasible`` False and no decoder.
    """

    feasible: "object"  #: bool array, ``check_sense_feasible`` passes
    values: "object"  #: float64 array, shape (n, len(TABLE_COLUMNS))
    decoders: list  #: DecoderMetrics per row, None where infeasible

    def column(self, name: str):
        return self.values[:, _COLUMN_INDEX[name]]


def subarray_table(
    tech: Technology, spec: ArraySpec, rows, cols
) -> SubarrayTable:
    """The subarray quantities of every shape ``(rows[u], cols[u])``.

    ``rows`` and ``cols`` are int64 arrays; only the spec's cell
    technology and periphery matter.  Each expression mirrors the
    same-named ``Subarray`` property (see the module docstring); the
    sense-amp formulas are the scalar :class:`SenseAmp` methods
    themselves, applied to arrays.
    """
    periph = tech.device(spec.periph_device_type)
    cell = tech.cell(spec.cell_tech, spec.periph_device_type)
    traits = cell.tech.traits
    f = tech.feature_size
    amp = SenseAmp(periph, f)
    n = len(rows)

    # --- geometry -------------------------------------------------------
    cell_array_height = rows * cell.height
    width = cols * cell.width + _DRIVER_STRIP_F * f
    height = cell_array_height + traits.sense_strip_height_f * f
    cell_area = rows * cols * cell.area

    # --- bitline electricals --------------------------------------------
    bl_wire = tech.bitline_wire(cell.tech)
    junction = cell.access_c_drain * cell.access_width + cell.access_c_junction
    if traits.folded_bitline:
        junction = 0.5 * junction
    blcap = rows * (junction + bl_wire.c_per_m * cell.height)
    blres = rows * bl_wire.r_per_m * cell.height

    # --- sensing ----------------------------------------------------------
    if traits.sensing is SensingScheme.CHARGE_SHARE:
        signal = charge_share_signal(cell.storage_cap, blcap, cell.vdd_cell)
        feasible = ~(signal < MIN_CHARGE_SHARE_SIGNAL)
        r_access = cell.access_r_channel / cell.access_width
        c_share = cell.storage_cap * blcap / (cell.storage_cap + blcap)
        t_bitline = _T_SETTLE * (r_access + blres / 2.0) * c_share
        # SenseAmp.restore_delay, with math.log per element.
        ratio = cell.vdd_cell / signal
        log_ratio = _np.array([math.log(v) for v in ratio.tolist()])
        t_sense = amp.r_latch * (blcap + amp.c_internal) * log_ratio
        e_sense_per_pair = amp.restore_energy(blcap, cell.vdd_cell)
    else:
        feasible = _np.ones(n, dtype=bool)
        swing = 0.10 * periph.vdd
        discharge = blcap * swing / cell.read_current
        t_bitline = discharge + 0.38 * blres * blcap
        t_sense = _np.full(n, amp.latch_delay())
        e_sense_per_pair = amp.latch_energy(blcap)
    if traits.destructive_read:
        r_access = cell.access_r_channel / cell.access_width
        t_writeback = (
            _T_SETTLE * _RESTORE_SLOWDOWN * r_access * cell.storage_cap
        )
    else:
        t_writeback = traits.write_pulse_time
    r_pre = periph.r_eff / (_PRECHARGE_WIDTH_F * f)
    swing_factor = traits.precharge_swing_fraction
    settle = _T_SETTLE_PRECISE if traits.precise_precharge else _T_SETTLE
    t_precharge = settle * r_pre * blcap * swing_factor + 0.38 * (
        blres * blcap * swing_factor
    )

    # --- row decode: one scalar design per feasible shape ----------------
    local = tech.local
    c_gate = (
        traits.wordline_gates_per_cell * cell.access_width * periph.c_gate
    )
    wl_c = cols * (c_gate + local.c_per_m * cell.width)
    wl_r = cols * local.r_per_m * cell.width
    predec_r = tech.semi_global.r_per_m * cell_array_height
    predec_c = tech.semi_global.c_per_m * cell_array_height
    decoders = [None] * n
    designed = []
    columns = zip(feasible.tolist(), rows.tolist(), wl_r.tolist(),
                  wl_c.tolist(), predec_r.tolist(), predec_c.tolist())
    for u, (ok, r, wr, wc, pr, pc) in enumerate(columns):
        if not ok:
            continue
        decoder = design_decoder(
            periph, f, r,
            WordlineLoad(wr, wc, cell.height, cell.wordline_voltage),
            WireLoad(pr, pc),
        )
        decoders[u] = decoder
        designed.append((decoder.delay, decoder.wordline_delay,
                         decoder.energy, decoder.area, decoder.leakage))
    dec = _np.zeros((n, 5))
    if designed:
        dec[feasible] = designed
    dec_delay, wl_delay, e_wordline, dec_area, dec_leak = dec.T

    cell_leak = (
        rows * cols * cell.access_i_off * TEMPERATURE_LEAKAGE_FACTOR
        * cell.access_width * cell.vdd_cell
    )
    cell_leak *= traits.cell_leak_paths

    values = _np.empty((n, len(TABLE_COLUMNS)))
    for j, column in enumerate((
        width, height, width * height + dec_area, cell_area, blcap,
        dec_delay, wl_delay, e_wordline, t_bitline, t_sense,
        t_writeback, t_precharge, e_sense_per_pair,
        cell_leak + dec_leak, amp.leakage(),
    )):
        values[:, j] = column
    values[~feasible] = 0.0
    return SubarrayTable(feasible=feasible, values=values, decoders=decoders)


def write_bitline_energy(cell: CellParams, num_written: int, blcap):
    """``Subarray.e_write_bitlines`` over a ``blcap`` array (J)."""
    vdd = cell.vdd_cell
    swing_fraction = cell.tech.traits.write_swing_fraction
    return num_written * blcap * vdd * vdd * swing_fraction


def _cached_table(
    tech: Technology, spec: ArraySpec, rows, cols, cache: EvalCache
) -> tuple:
    """``(feasible, values)`` of :func:`subarray_table` over unique
    shapes, evaluating only the shapes ``cache`` has not seen.

    Records one cache lookup per shape and stores each new row, with
    its decoder, for later batches and winner materialization.
    """
    shapes = list(zip(rows.tolist(), cols.tolist()))
    entries = cache.table_rows(tech, spec, shapes)
    missing = [u for u, entry in enumerate(entries) if entry is None]
    if missing:
        fresh = subarray_table(tech, spec, rows[missing], cols[missing])
        new = [
            (values if decoder is not None else None, decoder)
            for values, decoder in zip(fresh.values.tolist(), fresh.decoders)
        ]
        cache.store_table_rows(
            tech, spec, [shapes[u] for u in missing], new
        )
        for u, entry in zip(missing, new):
            entries[u] = entry
    known = [values for values, decoder in entries if decoder is not None]
    feasible = _np.array(
        [decoder is not None for _, decoder in entries], dtype=bool
    )
    values = _np.zeros((len(shapes), len(TABLE_COLUMNS)))
    if known:
        values[feasible] = known
    return feasible, values


def _htree_levels_array(num_mats):
    """Exact ``max(1, ceil(log2(max(n, 2))))`` for an int64 array.

    ``frexp`` decomposes n = m * 2**e with m in [0.5, 1); for integral
    n the ceil of log2 is e, minus one exactly when n is a power of two
    (m == 0.5).  Integer-exact for every value in range, unlike a
    floating ``log2`` whose ULP rounding could cross an integer.
    """
    mantissa, exponent = _np.frexp(num_mats.astype(_np.float64))
    levels = exponent - (mantissa == 0.5)
    return _np.maximum(1, levels)


def evaluate_batch(
    tech: Technology,
    spec: ArraySpec,
    batch: SurvivorBatch,
    cache: EvalCache,
) -> EvaluatedBatch:
    """Compose metrics for every survivor as one array computation.

    Mirrors ``organization._Builder.metrics()`` operation for
    operation; see the module docstring for the bit-identity argument.
    The subarray quantities come from one :func:`subarray_table` over
    the unique ``(rows, cols)`` shapes the cache has not seen yet;
    shapes it has seen are gathered from its table tier.  No
    ``Subarray`` object is built.  ``cache`` receives exactly the
    subarray hit/miss counts the scalar sweep would record (one lookup
    per candidate, a miss for each shape new to the cache); H-tree
    designs are replaced by closed-form array arithmetic over the one
    memoized :class:`~repro.circuits.repeaters.RepeatedWireDesign`, so
    tree counters advance only when winners are materialized
    afterwards.
    """
    periph = tech.device(spec.periph_device_type)
    cell = tech.cell(spec.cell_tech, spec.periph_device_type)
    traits = spec.cell_tech.traits

    # --- per-unique subarray table -----------------------------------
    # Many candidates share one (rows, cols) subarray: evaluate each
    # unique shape once, as one table, and gather.  The cache sees one
    # lookup per candidate, as the scalar sweep records them.
    key = batch.rows * (MAX_COLS + 1) + batch.cols
    unique_keys, inverse = _np.unique(key, return_inverse=True)
    rows_u = unique_keys // (MAX_COLS + 1)
    cols_u = unique_keys % (MAX_COLS + 1)
    feasible_u, table = _cached_table(tech, spec, rows_u, cols_u, cache)
    cache.subarray_hits += batch.size - len(unique_keys)

    buildable = feasible_u[inverse]
    n_infeasible = int(batch.size - _np.count_nonzero(buildable))
    keep = _np.nonzero(buildable)[0]
    batch = batch.take(keep)
    inv = inverse[keep]

    def g(name):
        return table[inv, _COLUMN_INDEX[name]]

    w, b = batch.ndwl, batch.ndbl
    nact, sensed = batch.nact, batch.sensed_bits
    n_sa = batch.sense_amps_per_sub

    # --- geometry + H-trees ------------------------------------------
    # mats_in_bank: max(1, ceil(ndwl/2) * ceil(ndbl/2)); the operands
    # are positive ints, so the int ceil is exact.
    num_mats = _np.maximum(1, ((w + 1) // 2) * ((b + 1) // 2))
    bank_width = w * g("width")
    bank_height = b * g("height")

    design = repeated_wire(
        periph,
        tech.htree_wire(spec.cell_tech),
        tech.feature_size,
        spec.max_repeater_delay_penalty,
    )
    path = (bank_width + bank_height) / 2.0
    levels = _htree_levels_array(num_mats)
    buffer_delay = levels * BRANCH_BUFFER_FO4 * periph.fo4
    t_htree = design.delay_per_m * path + buffer_delay
    occupancy = t_htree / _np.maximum(levels, 1)
    e_per_wire = design.energy_per_m * path
    in_wires = spec.address_bits + _CONTROL_WIRES
    out_wires = spec.output_bits
    e_htree_in = in_wires * e_per_wire
    e_htree_out = out_wires * e_per_wire
    leak_htree_in = in_wires * (design.leakage_per_m * (2.0 * path))
    leak_htree_out = out_wires * (design.leakage_per_m * (2.0 * path))
    wiring_in = in_wires * design.wire.pitch * 2.0 * path
    wiring_out = out_wires * design.wire.pitch * 2.0 * path

    # --- timing -------------------------------------------------------
    t_colmux = _COLMUX_FO4 * periph.fo4
    t_access = (
        t_htree
        + g("dec_delay")
        + g("t_bitline")
        + g("t_sense")
        + t_colmux
        + t_htree
    )
    t_random_cycle = (
        g("wl_delay")
        + g("t_bitline")
        + g("t_sense")
        + g("t_writeback")
        + g("t_precharge")
    )
    # max(in-tree occupancy, out-tree occupancy, colmux); both trees
    # share one design and path, so their occupancies are one array.
    t_interleave = _np.maximum(occupancy, t_colmux)

    # --- energies -----------------------------------------------------
    e_wordlines = nact * g("e_wordline")
    e_sense = sensed * g("e_sense_per_pair")
    e_activate = e_wordlines + e_sense + e_htree_in
    e_colmux = (
        spec.output_bits
        * periph.c_gate
        * 8.0
        * tech.feature_size
        * periph.vdd**2
    )
    e_read_column = e_colmux + e_htree_out
    e_writebl = write_bitline_energy(cell, spec.output_bits, g("blcap"))
    e_write_column = e_colmux + e_htree_out + e_writebl
    swing_fraction = traits.precharge_swing_fraction
    e_precharge = (
        sensed * g("blcap") * cell.vdd_cell**2 * swing_fraction * 0.5
    )
    scale = 1.0 + _CONTROL_ENERGY_FRACTION
    e_activate = e_activate * scale
    e_read_column = e_read_column * scale
    e_write_column = e_write_column * scale
    e_precharge = e_precharge * scale

    # --- leakage ------------------------------------------------------
    num_subs = w * b
    leak_per_sub = g("leak_fixed") + n_sa * g("amp_leak")
    if spec.sleep_transistors:
        active_fraction = nact / num_subs
        leak_array = leak_per_sub * num_subs * (
            active_fraction + 0.5 * (1.0 - active_fraction)
        )
    else:
        leak_array = leak_per_sub * num_subs
    leak_bank = (
        leak_array + leak_htree_in + leak_htree_out
    ) * (1.0 + _CONTROL_LEAKAGE_FRACTION)
    p_leakage = leak_bank * spec.nbanks

    # --- refresh ------------------------------------------------------
    if traits.needs_refresh:
        refresh_ops_per_bank = batch.rows * b * w / nact
        e_refresh_op = (e_activate + e_precharge)
        p_refresh = (
            spec.nbanks
            * refresh_ops_per_bank
            * e_refresh_op
            / cell.retention_time
        )
    else:
        p_refresh = _np.zeros(batch.size, dtype=_np.float64)

    # --- area ---------------------------------------------------------
    subarrays_area = num_subs * g("area") * 1.02
    wiring = wiring_in + wiring_out
    bank_area = (subarrays_area + 0.5 * wiring) * (1 + _BANK_AREA_OVERHEAD)
    total_area = bank_area * spec.nbanks
    cell_area = num_subs * g("cell_area") * spec.nbanks

    e_read_access = e_activate + e_read_column + e_precharge
    return EvaluatedBatch(
        batch=batch,
        n_infeasible=n_infeasible,
        t_access=t_access,
        t_random_cycle=t_random_cycle,
        t_interleave=t_interleave,
        e_activate=e_activate,
        e_read_column=e_read_column,
        e_write_column=e_write_column,
        e_precharge=e_precharge,
        e_read_access=e_read_access,
        p_leakage=p_leakage,
        p_refresh=p_refresh,
        area=total_area,
        bank_width=bank_width,
        bank_height=bank_height,
        area_efficiency=cell_area / total_area,
    )


def rank_batch(ev: EvaluatedBatch, target) -> "object":
    """Staged constraints + normalized weighted ranking on the arrays.

    Returns the indices of the constraint-satisfying candidates into
    ``ev``'s arrays, best first -- exactly the order
    ``rank(filter_constraints(designs, target), target)`` produces,
    including stable tie-breaking by enumeration order.
    """
    area, t_access = ev.area, ev.t_access
    best_area = float(area.min())
    within_area = area <= best_area * (1.0 + target.max_area_fraction)
    best_time = float(t_access[within_area].min())
    mask = within_area & (
        t_access <= best_time * (1.0 + target.max_acctime_fraction)
    )
    idx = _np.nonzero(mask)[0]

    def floor(values) -> float:
        smallest = float(values.min())
        return smallest if smallest > 0.0 else 1e-30

    e_read = ev.e_read_access[idx]
    leak_total = ev.p_leakage[idx] + ev.p_refresh[idx]
    cycle = ev.t_random_cycle[idx]
    interleave = ev.t_interleave[idx]
    min_dyn = floor(e_read)
    min_leak = floor(leak_total)
    min_cycle = floor(cycle)
    min_interleave = floor(interleave)
    score = (
        target.weight_dynamic * e_read / min_dyn
        + target.weight_leakage * leak_total / min_leak
        + target.weight_cycle * cycle / min_cycle
        + target.weight_interleave * interleave / min_interleave
    )
    return idx[_np.argsort(score, kind="stable")]
