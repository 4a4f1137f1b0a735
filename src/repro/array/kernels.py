"""Vectorized survivor-batch evaluation kernels.

The optimizer's serial inner loop used to build one Python object stack
(`_Builder` -> `Subarray` -> `HTree` -> `ArrayMetrics`) per prefilter
survivor -- ~12-15 % of the enumerated grid, thousands of candidates per
solve.  This module recasts that per-candidate composition as numpy
array arithmetic over *all* survivors at once:

* :func:`survivor_batch` wraps the raw arrays of
  :func:`~repro.array.organization.survivor_arrays` (the vectorized
  structural pre-filter) without materializing ``OrgParams`` /
  ``OrgGeometry`` objects;
* :func:`evaluate_batch` computes bitline/sense/decode/H-tree delays,
  per-access energies, leakage, refresh power, and area for the whole
  batch as float64 arrays;
* :func:`rank_batch` applies the staged area/access-time constraints
  and the normalized weighted ranking on the arrays.

Full ``Subarray``/``HTree``/``ArrayMetrics`` objects are constructed
only for the winner(s) the caller materializes afterwards -- see
``repro.core.optimizer``.

Determinism / bit-identity contract
-----------------------------------
Per-candidate arithmetic in the scalar path uses only ``+ * / max`` on
float64 (plus exact int-to-float conversions), and numpy performs the
identical IEEE-754 operation elementwise, so every kernel here mirrors
the scalar expression *operation for operation, in the same
left-associative order*.  Quantities whose formulas involve logs or
iterative sizing (decoder chains, sense timing, bitline RC) are never
recomputed: they are gathered from the same frozen
:class:`~repro.array.subarray.Subarray` objects the scalar path builds,
one per *unique* ``(rows, cols)`` -- via the shared
:class:`~repro.array.organization.EvalCache` -- and broadcast by
gather.  H-tree levels use an exact integer ``frexp`` ceil-log2.  The
result: ranking picks the same winner index the scalar sweep picks, and
the materialized winner is bit-identical.  The scalar reference these
kernels are tested against is
:func:`~repro.core.optimizer.feasible_designs`.
"""

from __future__ import annotations

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
from repro.array.subarray import InfeasibleSubarray
from repro.circuits.repeaters import repeated_wire
from repro.tech.nodes import Technology


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
    ``cache`` receives exactly the subarray hit/miss counts the scalar
    sweep would record (one lookup per candidate); H-tree designs are
    replaced by closed-form array arithmetic over the one memoized
    :class:`~repro.circuits.repeaters.RepeatedWireDesign`, so tree
    counters advance only when winners are materialized afterwards.
    """
    periph = tech.device(spec.periph_device_type)
    cell = tech.cell(spec.cell_tech, spec.periph_device_type)
    traits = spec.cell_tech.traits

    # --- per-unique subarray table -----------------------------------
    # Many candidates share one (rows, cols) subarray; the scalar sweep
    # resolves each through the EvalCache.  Solve each unique once and
    # gather, replicating the cache counters the per-candidate lookups
    # would have produced.
    key = batch.rows * (MAX_COLS + 1) + batch.cols
    unique_keys, inverse, counts = _np.unique(
        key, return_inverse=True, return_counts=True
    )
    rows_u = unique_keys // (MAX_COLS + 1)
    cols_u = unique_keys % (MAX_COLS + 1)
    n_unique = len(unique_keys)

    feasible_u = _np.zeros(n_unique, dtype=bool)
    per_unique = {
        name: _np.zeros(n_unique, dtype=_np.float64)
        for name in (
            "width", "height", "area", "cell_area", "blcap",
            "dec_delay", "wl_delay", "e_wordline", "t_bitline", "t_sense",
            "t_writeback", "t_precharge", "e_sense_per_pair", "e_writebl",
            "leak_fixed", "amp_leak",
        )
    }
    for u in range(n_unique):
        sub = cache.subarray(tech, spec, int(rows_u[u]), int(cols_u[u]))
        cache.subarray_hits += int(counts[u]) - 1
        try:
            sub.check_sense_feasible()
        except InfeasibleSubarray:
            continue
        feasible_u[u] = True
        per_unique["width"][u] = sub.width
        per_unique["height"][u] = sub.height
        per_unique["area"][u] = sub.area
        per_unique["cell_area"][u] = sub.cell_area
        per_unique["blcap"][u] = sub.bitline_capacitance
        per_unique["dec_delay"][u] = sub.decoder.delay
        per_unique["wl_delay"][u] = sub.decoder.wordline_delay
        per_unique["e_wordline"][u] = sub.e_wordline
        per_unique["t_bitline"][u] = sub.t_bitline
        per_unique["t_sense"][u] = sub.t_sense
        per_unique["t_writeback"][u] = sub.t_writeback
        per_unique["t_precharge"][u] = sub.t_precharge
        per_unique["e_sense_per_pair"][u] = sub.e_sense_per_pair
        per_unique["e_writebl"][u] = sub.e_write_bitlines(spec.output_bits)
        per_unique["leak_fixed"][u] = sub.leakage_fixed
        per_unique["amp_leak"][u] = sub.sense_amp.leakage()

    buildable = feasible_u[inverse]
    n_infeasible = int(batch.size - _np.count_nonzero(buildable))
    keep = _np.nonzero(buildable)[0]
    batch = batch.take(keep)
    inv = inverse[keep]

    def g(name):
        return per_unique[name][inv]

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
    t_interleave = _np.maximum(_np.maximum(occupancy, occupancy), t_colmux)

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
    e_write_column = e_colmux + e_htree_out + g("e_writebl")
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
