"""Bank organization: partitioning parameters to complete array metrics.

A bank is an ``ndwl x ndbl`` grid of subarrays (grouped 2x2 into mats)
reached by address and data H-trees.  The partitioning parameters follow
CACTI:

* ``ndwl`` -- wordline divisions (subarray columns across the bank),
* ``ndbl`` -- bitline divisions (subarray rows down the bank),
* ``nspd`` -- sets mapped onto one wordline (relative row widening),
* ``ndcm`` -- column-mux degree before the sense amps (only where the
  cell traits allow it; charge-share DRAM senses every bitline -- that
  *is* the page),
* ``ndsam`` -- output mux degree after the sense amps.

From one tuple the module derives subarray geometry, how many subarrays
activate per access, and composes access time, random cycle time,
multisubbank interleave cycle time, per-access energies, leakage, refresh
power, and area.  The optimizer in :mod:`repro.core.optimizer` sweeps this
space exhaustively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.array.htree import HTree, design_htree
from repro.array.mat import mats_in_bank
from repro.array.subarray import InfeasibleSubarray, Subarray
from repro.tech.cells import CellTech
from repro.tech.nodes import Technology

#: Fraction of dynamic energy added for control logic and clocking.
_CONTROL_ENERGY_FRACTION = 0.05

#: Fraction of leakage added for control/IO circuitry.
_CONTROL_LEAKAGE_FRACTION = 0.05

#: Area overhead for bank-level control, redundancy, and pads.
_BANK_AREA_OVERHEAD = 0.05

#: Control wires accompanying the address on the in-tree.
_CONTROL_WIRES = 8

#: Delay of the post-sense column mux / way select, in FO4s.
_COLMUX_FO4 = 3.0

#: Structural limits on candidate subarrays.
MIN_ROWS, MAX_ROWS = 8, 16384
MIN_COLS, MAX_COLS = 16, 65536

#: The DRAM technologies declare ``max_bitline_cells = 512`` in their
#: traits: beyond that, charge-share signal margins against noise,
#: offset, and cell-capacitance variation make sensing unreliable, which
#: is why commodity parts stop there.  Kept as a named constant for
#: reference and tests; the model reads the trait.
MAX_DRAM_ROWS = 512


class InfeasibleOrganization(ValueError):
    """Raised when a partitioning tuple cannot realize the array spec."""


@dataclass(frozen=True)
class OrgGeometry:
    """Structural facts derivable from (spec, org) by arithmetic alone."""

    rows: int  #: rows per subarray
    cols: int  #: columns per subarray
    nact: int  #: subarrays activated per access
    sensed_bits: int  #: bitline pairs sensed per access
    sense_amps_per_sub: int  #: sense amplifiers per subarray


@dataclass(frozen=True)
class OrgParams:
    """One point in the partitioning space."""

    ndwl: int
    ndbl: int
    nspd: float
    ndcm: int = 1
    ndsam: int = 1

    def __post_init__(self) -> None:
        for name in ("ndwl", "ndbl", "ndcm", "ndsam"):
            value = getattr(self, name)
            if value < 1 or value & (value - 1):
                raise InfeasibleOrganization(
                    f"{name} must be a positive power of two, got {value}"
                )
        if self.nspd <= 0:
            raise InfeasibleOrganization("nspd must be positive")


@dataclass(frozen=True)
class ArraySpec:
    """Low-level specification of one physical array (data or tag).

    ``capacity_bits`` covers all banks.  ``output_bits`` is what one access
    delivers at the bank edge; ``assoc`` rows share a set (cache data/tag
    arrays) -- use 1 for plain memories.  ``page_bits``, when set,
    constrains the sensed bits per activation (main-memory page size).
    """

    capacity_bits: int
    output_bits: int
    assoc: int = 1
    nbanks: int = 1
    cell_tech: CellTech = CellTech.SRAM
    periph_device_type: str = "hp-long-channel"
    page_bits: int | None = None
    sleep_transistors: bool = False
    max_repeater_delay_penalty: float = 0.0

    def __post_init__(self) -> None:
        # Accept a registry name for cell_tech; unknown names raise a
        # ValueError listing the registered technologies.
        object.__setattr__(self, "cell_tech", CellTech(self.cell_tech))
        if self.capacity_bits % (self.nbanks * self.output_bits * self.assoc):
            raise InfeasibleOrganization(
                "capacity must divide evenly into banks x sets x output bits"
            )

    @property
    def bits_per_bank(self) -> int:
        return self.capacity_bits // self.nbanks

    @property
    def sets_per_bank(self) -> int:
        return self.bits_per_bank // (self.output_bits * self.assoc)

    @property
    def address_bits(self) -> int:
        return max(1, math.ceil(math.log2(max(self.sets_per_bank, 2))))


@dataclass(frozen=True)
class ArrayMetrics:
    """Complete evaluated metrics of one (spec, org) design point."""

    spec: ArraySpec
    org: OrgParams
    rows: int  #: rows per subarray
    cols: int  #: columns per subarray
    nact: int  #: subarrays activated per access
    sensed_bits: int  #: bitline pairs sensed per access
    # timing (s)
    t_access: float
    t_random_cycle: float
    t_interleave: float
    t_decode: float
    t_wordline: float
    t_bitline: float
    t_sense: float
    t_writeback: float
    t_precharge: float
    t_htree_in: float
    t_htree_out: float
    # energy (J per access)
    e_activate: float  #: row open: decode + wordline + sense (+restore)
    e_read_column: float  #: column path + data out for a read
    e_write_column: float  #: column path + data in for a write
    e_precharge: float  #: bitline restore
    # power (W)
    p_leakage: float
    p_refresh: float
    # geometry
    area: float  #: total area, all banks (m^2)
    bank_width: float
    bank_height: float
    area_efficiency: float

    @property
    def e_read_access(self) -> float:
        """Total dynamic energy of one full read access (J)."""
        return self.e_activate + self.e_read_column + self.e_precharge

    @property
    def e_write_access(self) -> float:
        return self.e_activate + self.e_write_column + self.e_precharge


def derive_geometry(spec: ArraySpec, org: OrgParams) -> OrgGeometry:
    """Derive the subarray geometry of ``(spec, org)`` from arithmetic alone.

    Performs every structural feasibility check that does not require a
    technology object -- integral rows/cols, row/col ranges, the cell
    traits' bitline sensing limit, mux divisibility, active-subarray and
    way-select counts, and page-size matching -- and raises
    :class:`InfeasibleOrganization` on the first violation.  This is the
    optimizer's cheap pre-filter: the vast majority of candidate tuples
    are rejected here without building any circuit objects.
    """
    traits = spec.cell_tech.traits
    if org.ndcm != 1 and not traits.column_mux_allowed:
        raise InfeasibleOrganization(
            f"{spec.cell_tech} senses every bitline; column muxing before "
            "the sense amps (ndcm > 1) is not possible"
        )
    rows_f = spec.sets_per_bank / (org.ndbl * org.nspd)
    cols_f = spec.output_bits * spec.assoc * org.nspd / org.ndwl
    if rows_f != int(rows_f) or cols_f != int(cols_f):
        raise InfeasibleOrganization(
            f"non-integral subarray ({rows_f} x {cols_f})"
        )
    rows, cols = int(rows_f), int(cols_f)
    if not MIN_ROWS <= rows <= MAX_ROWS:
        raise InfeasibleOrganization(f"rows {rows} out of range")
    max_cells = traits.max_bitline_cells
    if max_cells is not None and rows > max_cells:
        raise InfeasibleOrganization(
            f"{rows} cells per bitline exceeds {spec.cell_tech}'s "
            f"{max_cells}-cell sensing limit"
        )
    if not MIN_COLS <= cols <= MAX_COLS:
        raise InfeasibleOrganization(f"cols {cols} out of range")
    if cols % (org.ndcm * org.ndsam):
        raise InfeasibleOrganization("mux degrees must divide columns")

    # Output bits produced by one activated subarray.  Non-power-of-two
    # associativities leave the last active subarray partially used, so
    # the count rounds up rather than requiring exact tiling.
    out_per_sub = cols // (org.ndcm * org.ndsam)
    if out_per_sub == 0:
        raise InfeasibleOrganization("mux degree consumes all columns")
    nact = math.ceil(spec.output_bits / out_per_sub)
    if nact > org.ndwl:
        raise InfeasibleOrganization(
            f"access needs {nact} active subarrays, bank has "
            f"{org.ndwl} per row"
        )
    # A set-associative array must be able to mux down to one way.
    if spec.assoc > 1 and org.ndcm * org.ndsam < spec.assoc:
        raise InfeasibleOrganization(
            "mux degree cannot select one way out of the set"
        )

    # Where column muxing is disallowed ndcm is already forced to 1, so
    # every bitline is sensed either way.
    sensed_per_sub = cols // org.ndcm
    sensed_bits = nact * sensed_per_sub

    if spec.page_bits is not None:
        if not traits.supports_page_mode:
            raise InfeasibleOrganization(
                f"page size applies to page-mode technologies only, "
                f"not {spec.cell_tech}"
            )
        if sensed_bits != spec.page_bits:
            raise InfeasibleOrganization(
                f"activation senses {sensed_bits} bits, page is "
                f"{spec.page_bits}"
            )

    return OrgGeometry(
        rows=rows,
        cols=cols,
        nact=nact,
        sensed_bits=sensed_bits,
        sense_amps_per_sub=sensed_per_sub,
    )


def prefilter_org(spec: ArraySpec, org: OrgParams) -> OrgGeometry | None:
    """Cheap structural feasibility check: geometry, or None if infeasible.

    Candidates rejected here would also be rejected by
    :func:`build_organization`; passing is necessary but not sufficient
    (electrical checks such as the DRAM sense-signal margin still run at
    build time).
    """
    try:
        return derive_geometry(spec, org)
    except InfeasibleOrganization:
        return None


class EvalCache:
    """Cross-candidate memoization for one technology node.

    Many partitioning tuples share the same ``(rows, cols)`` subarray and
    the same H-tree design inputs; caching those designs makes the sweep
    cost proportional to the number of *distinct* circuit problems rather
    than the number of candidates.  Safe to share across every solve at
    one node (keys carry cell technology, periphery, and node).

    The subarray tier holds each shape in one of two forms under one
    key ``(rows, cols, cell tech, periphery, node)``:

    * a table row -- the vectorized kernels' per-shape values (in
      :data:`repro.array.kernels.TABLE_COLUMNS` order) plus the
      shape's :class:`~repro.circuits.decoder.DecoderMetrics`, or
      ``(None, None)`` for a shape that fails the sense-signal check;
    * a :class:`~repro.array.subarray.Subarray` object, built for the
      scalar path and for winner materialization.

    A lookup of either form is a hit when the shape is known in either
    form, so ``subarray_misses`` counts distinct shapes whichever path
    asked first.  A ``Subarray`` built for a shape the table already
    holds reuses the row's decoder, so materializing a winner sizes no
    driver chain.  Results are bit-identical to uncached construction:
    the table mirrors ``Subarray`` operation for operation, and equal
    frozen inputs perform the same computations.
    """

    def __init__(self) -> None:
        self._subarrays: dict[tuple, Subarray] = {}
        self._table: dict[tuple, tuple] = {}
        self._htrees: dict[tuple, HTree] = {}
        self.subarray_hits = 0
        self.subarray_misses = 0
        self.htree_hits = 0
        self.htree_misses = 0

    @staticmethod
    def _key(tech: Technology, spec: ArraySpec, rows: int, cols: int):
        return (
            rows, cols, spec.cell_tech, spec.periph_device_type, tech.node_nm
        )

    def subarray(
        self, tech: Technology, spec: ArraySpec, rows: int, cols: int
    ) -> Subarray:
        key = self._key(tech, spec, rows, cols)
        sub = self._subarrays.get(key)
        if sub is not None:
            self.subarray_hits += 1
            return sub
        row = self._table.get(key)
        if row is None:
            self.subarray_misses += 1
        else:
            self.subarray_hits += 1
        sub = Subarray(
            tech=tech,
            cell=tech.cell(spec.cell_tech, spec.periph_device_type),
            periph=tech.device(spec.periph_device_type),
            rows=rows,
            cols=cols,
        )
        if row is not None and row[1] is not None:
            # ``decoder`` is a cached_property, which reads the instance
            # dict first: seeding it hands over the design the table
            # already made from the same inputs.
            sub.__dict__["decoder"] = row[1]
        self._subarrays[key] = sub
        return sub

    def table_rows(
        self, tech: Technology, spec: ArraySpec, shapes: list[tuple]
    ) -> list:
        """The table row of each ``(rows, cols)`` in ``shapes``, None
        where it has not been computed yet; one lookup per shape."""
        rows = []
        for shape in shapes:
            key = self._key(tech, spec, *shape)
            row = self._table.get(key)
            if row is not None or key in self._subarrays:
                self.subarray_hits += 1
            else:
                self.subarray_misses += 1
            rows.append(row)
        return rows

    def store_table_rows(
        self, tech: Technology, spec: ArraySpec, shapes: list[tuple],
        rows: list[tuple],
    ) -> None:
        for shape, row in zip(shapes, rows):
            self._table[self._key(tech, spec, *shape)] = row

    def htree(self, key: tuple, build) -> HTree:
        tree = self._htrees.get(key)
        if tree is not None:
            self.htree_hits += 1
            return tree
        self.htree_misses += 1
        tree = build()
        self._htrees[key] = tree
        return tree


def build_organization(
    tech: Technology,
    spec: ArraySpec,
    org: OrgParams,
    cache: EvalCache | None = None,
    geometry: OrgGeometry | None = None,
) -> ArrayMetrics:
    """Evaluate one partitioning tuple; raises InfeasibleOrganization.

    ``cache`` enables cross-candidate reuse of subarray and H-tree
    designs; ``geometry`` skips re-deriving a pre-filtered geometry.
    Both are optional and change nothing about the returned numbers.
    """
    return _Builder(tech, spec, org, cache=cache, geometry=geometry).metrics()


class _Builder:
    """Derives and composes all metrics for one design point."""

    def __init__(
        self,
        tech: Technology,
        spec: ArraySpec,
        org: OrgParams,
        cache: EvalCache | None = None,
        geometry: OrgGeometry | None = None,
    ):
        self.tech = tech
        self.spec = spec
        self.org = org
        self.cache = cache
        self.periph = tech.device(spec.periph_device_type)
        self.cell = tech.cell(spec.cell_tech, spec.periph_device_type)
        self.traits = spec.cell_tech.traits
        if geometry is None:
            geometry = derive_geometry(spec, org)
        self.rows = geometry.rows
        self.cols = geometry.cols
        self.nact = geometry.nact
        self.sensed_bits = geometry.sensed_bits
        self.sense_amps_per_sub = geometry.sense_amps_per_sub

        if cache is not None:
            self.subarray = cache.subarray(tech, spec, self.rows, self.cols)
        else:
            self.subarray = Subarray(
                tech=self.tech,
                cell=self.cell,
                periph=self.periph,
                rows=self.rows,
                cols=self.cols,
            )
        self.subarray.check_sense_feasible()

        self.num_mats = mats_in_bank(org.ndwl, org.ndbl)
        self.bank_width = org.ndwl * self.subarray.width
        self.bank_height = org.ndbl * self.subarray.height

    # ------------------------------------------------------------------ #

    @cached_property
    def _htree_wire(self):
        # The bank-routing wire plane is a trait: commodity DRAM
        # processes have few, slow metal layers (the cost structure that
        # makes them dense), so bank routing runs on the intermediate
        # plane; logic processes route on fast top metal.
        return self.tech.htree_wire(self.spec.cell_tech)

    def _design_htree(self, num_wires: int) -> HTree:
        build = lambda: design_htree(  # noqa: E731
            self.tech,
            self.periph,
            self.bank_width,
            self.bank_height,
            num_wires=num_wires,
            num_mats=self.num_mats,
            max_repeater_delay_penalty=self.spec.max_repeater_delay_penalty,
            wire=self._htree_wire,
        )
        if self.cache is None:
            return build()
        key = (
            num_wires,
            self.num_mats,
            self.bank_width,
            self.bank_height,
            self.spec.max_repeater_delay_penalty,
            self._htree_wire.name,
            self.spec.periph_device_type,
            self.tech.node_nm,
        )
        return self.cache.htree(key, build)

    @cached_property
    def htree_in(self) -> HTree:
        # Global circuitry uses the same device family as the periphery
        # (paper Table 1: long-channel HP for SRAM/LP-DRAM, LSTP for
        # COMM-DRAM).
        return self._design_htree(self.spec.address_bits + _CONTROL_WIRES)

    @cached_property
    def htree_out(self) -> HTree:
        return self._design_htree(self.spec.output_bits)

    # ------------------------------------------------------------------ #

    def metrics(self) -> ArrayMetrics:
        sub = self.subarray
        spec, org = self.spec, self.org

        t_colmux = _COLMUX_FO4 * self.periph.fo4
        t_access = (
            self.htree_in.delay
            + sub.decoder.delay
            + sub.t_bitline
            + sub.t_sense
            + t_colmux
            + self.htree_out.delay
        )
        t_random_cycle = (
            sub.decoder.wordline_delay
            + sub.t_bitline
            + sub.t_sense
            + sub.t_writeback
            + sub.t_precharge
        )
        t_interleave = max(
            self.htree_in.occupancy,
            self.htree_out.occupancy,
            t_colmux,
        )

        # --- energies ---------------------------------------------------
        e_wordlines = self.nact * sub.e_wordline
        e_sense = sub.e_read_bitlines(self.sensed_bits)
        e_activate = e_wordlines + e_sense + self.htree_in.energy()
        e_colmux = (
            spec.output_bits
            * self.periph.c_gate
            * 8.0
            * self.tech.feature_size
            * self.periph.vdd**2
        )
        e_read_column = e_colmux + self.htree_out.energy()
        e_write_column = (
            e_colmux
            + self.htree_out.energy()
            + sub.e_write_bitlines(spec.output_bits)
        )
        # Precharge dissipates roughly the sense-restore charge again for
        # half-VDD-equalized technologies; otherwise it restores only the
        # small read swing.  The fraction is a trait.
        swing_fraction = self.traits.precharge_swing_fraction
        e_precharge = (
            self.sensed_bits
            * sub.bitline_capacitance
            * self.cell.vdd_cell**2
            * swing_fraction
            * 0.5
        )
        scale = 1.0 + _CONTROL_ENERGY_FRACTION
        e_activate *= scale
        e_read_column *= scale
        e_write_column *= scale
        e_precharge *= scale

        # --- leakage ------------------------------------------------------
        num_subs = org.ndwl * org.ndbl
        leak_per_sub = sub.leakage(self.sense_amps_per_sub)
        if spec.sleep_transistors:
            active_fraction = self.nact / num_subs
            leak_array = leak_per_sub * num_subs * (
                active_fraction + 0.5 * (1.0 - active_fraction)
            )
        else:
            leak_array = leak_per_sub * num_subs
        leak_bank = (
            leak_array + self.htree_in.leakage + self.htree_out.leakage
        ) * (1.0 + _CONTROL_LEAKAGE_FRACTION)
        p_leakage = leak_bank * spec.nbanks

        # --- refresh ------------------------------------------------------
        p_refresh = 0.0
        if self.traits.needs_refresh:
            assert self.cell.retention_time is not None
            refresh_ops_per_bank = self.rows * org.ndbl * org.ndwl / self.nact
            e_refresh_op = (e_activate + e_precharge)
            p_refresh = (
                spec.nbanks
                * refresh_ops_per_bank
                * e_refresh_op
                / self.cell.retention_time
            )

        # --- area -----------------------------------------------------------
        subarrays_area = num_subs * sub.area * 1.02  # mat control strips
        wiring = self.htree_in.wiring_area + self.htree_out.wiring_area
        bank_area = (subarrays_area + 0.5 * wiring) * (1 + _BANK_AREA_OVERHEAD)
        total_area = bank_area * spec.nbanks
        cell_area = num_subs * sub.cell_area * spec.nbanks

        return ArrayMetrics(
            spec=spec,
            org=org,
            rows=self.rows,
            cols=self.cols,
            nact=self.nact,
            sensed_bits=self.sensed_bits,
            t_access=t_access,
            t_random_cycle=t_random_cycle,
            t_interleave=t_interleave,
            t_decode=sub.decoder.delay,
            t_wordline=sub.decoder.wordline_delay,
            t_bitline=sub.t_bitline,
            t_sense=sub.t_sense,
            t_writeback=sub.t_writeback,
            t_precharge=sub.t_precharge,
            t_htree_in=self.htree_in.delay,
            t_htree_out=self.htree_out.delay,
            e_activate=e_activate,
            e_read_column=e_read_column,
            e_write_column=e_write_column,
            e_precharge=e_precharge,
            p_leakage=p_leakage,
            p_refresh=p_refresh,
            area=total_area,
            bank_width=self.bank_width,
            bank_height=self.bank_height,
            area_efficiency=cell_area / total_area,
        )


def _org_grid(
    spec: ArraySpec,
    max_ndwl: int = 64,
    max_ndbl: int = 64,
    nspd_values: tuple[float, ...] | None = None,
    max_mux: int | None = None,
) -> tuple[tuple, tuple, tuple, tuple, tuple]:
    """The (ndwl, ndbl, nspd, ndcm, ndsam) axes of the candidate grid.

    Wide-page main-memory parts (page_bits set) need far more row
    widening (nspd) and output muxing than caches, because a whole page
    is sensed but only a few dozen bits leave the chip per column access.
    """
    traits = spec.cell_tech.traits
    if nspd_values is None:
        nspd_values = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
        if spec.page_bits is not None:
            # Row widening must reach page/output (a whole page on one
            # subarray row) and beyond: large chips also need wide rows
            # just to keep bitlines under the bitline sensing limit.
            widening = max(2, spec.page_bits // spec.output_bits) * 16
            nspd_values += tuple(
                float(2**k) for k in range(4, widening.bit_length())
            )
    if max_mux is None:
        max_mux = 64
        if spec.page_bits is not None:
            max_mux = max(64, spec.page_bits // spec.output_bits * 2)
    ndcms = _powers_up_to(max_mux) if traits.column_mux_allowed else (1,)
    return (
        _powers_up_to(max_ndwl),
        _powers_up_to(max_ndbl),
        tuple(nspd_values),
        ndcms,
        _powers_up_to(max_mux),
    )


def org_grid_size(
    spec: ArraySpec,
    max_ndwl: int = 64,
    max_ndbl: int = 64,
    nspd_values: tuple[float, ...] | None = None,
    max_mux: int | None = None,
) -> int:
    """Number of candidate tuples :func:`enumerate_orgs` would produce."""
    size = 1
    for axis in _org_grid(spec, max_ndwl, max_ndbl, nspd_values, max_mux):
        size *= len(axis)
    return size


def enumerate_orgs(
    spec: ArraySpec,
    max_ndwl: int = 64,
    max_ndbl: int = 64,
    nspd_values: tuple[float, ...] | None = None,
    max_mux: int | None = None,
) -> list[OrgParams]:
    """All structurally plausible partitioning tuples for ``spec``.

    Infeasible tuples are cheap to reject later; this enumeration only
    enforces the power-of-two structure and mux applicability.  Sweeps
    use :func:`prefilter_grid`, which applies the structural pre-filter
    to the whole grid at once; filtering this list through
    :func:`prefilter_org` is its scalar reference.
    """
    ndwls, ndbls, nspds, ndcms, ndsams = _org_grid(
        spec, max_ndwl, max_ndbl, nspd_values, max_mux
    )
    candidates = []
    for ndwl in ndwls:
        for ndbl in ndbls:
            for nspd in nspds:
                for ndcm in ndcms:
                    for ndsam in ndsams:
                        candidates.append(
                            OrgParams(ndwl, ndbl, nspd, ndcm, ndsam)
                        )
    return candidates


def survivor_arrays(
    spec: ArraySpec,
    max_ndwl: int = 64,
    max_ndbl: int = 64,
    nspd_values: tuple[float, ...] | None = None,
    max_mux: int | None = None,
):
    """Raw survivor arrays of the vectorized structural pre-filter.

    Evaluates every feasibility expression of :func:`derive_geometry` --
    integral rows/columns, row/column ranges, the 512-row DRAM bitline
    sensing limit, mux divisibility, active-subarray and way-select
    counts, page matching -- as one numpy batch over the full
    (ndwl, ndbl, nspd, ndcm, ndsam) grid, instead of per-candidate
    Python calls, and returns the surviving candidates as ten aligned
    arrays ``(ndwl, ndbl, nspd, ndcm, ndsam, rows, cols, nact,
    sensed_bits, sense_amps_per_sub)`` in enumeration order (the order
    ranking ties break by).

    The arithmetic is float64/int64, the same IEEE-754 operations the
    scalar path performs, so the integrality tests agree bit for bit.
    """
    import numpy as _np

    axes = _org_grid(spec, max_ndwl, max_ndbl, nspd_values, max_mux)
    ndwls, ndbls, nspds, ndcms, ndsams = axes
    traits = spec.cell_tech.traits
    # C-order ravel of an 'ij' meshgrid iterates the last axis fastest,
    # matching the nested loop order of enumerate_orgs.
    w, b, s, c, m = (
        g.ravel()
        for g in _np.meshgrid(
            _np.asarray(ndwls, dtype=_np.int64),
            _np.asarray(ndbls, dtype=_np.int64),
            _np.asarray(nspds, dtype=_np.float64),
            _np.asarray(ndcms, dtype=_np.int64),
            _np.asarray(ndsams, dtype=_np.int64),
            indexing="ij",
        )
    )
    rows_f = spec.sets_per_bank / (b * s)
    cols_f = spec.output_bits * spec.assoc * s / w
    ok = (rows_f == _np.floor(rows_f)) & (cols_f == _np.floor(cols_f))
    # Non-integral entries are already masked out; clamp them to an
    # in-range value so the integer conversion cannot overflow.
    rows = _np.where(ok, rows_f, MIN_ROWS).astype(_np.int64)
    cols = _np.where(ok, cols_f, MIN_COLS).astype(_np.int64)
    ok &= (rows >= MIN_ROWS) & (rows <= MAX_ROWS)
    if traits.max_bitline_cells is not None:
        ok &= rows <= traits.max_bitline_cells
    ok &= (cols >= MIN_COLS) & (cols <= MAX_COLS)
    mux = c * m
    ok &= cols % mux == 0
    out_per_sub = cols // mux
    ok &= out_per_sub > 0
    nact = -(-spec.output_bits // _np.maximum(out_per_sub, 1))
    ok &= nact <= w
    if spec.assoc > 1:
        ok &= mux >= spec.assoc
    sensed_per_sub = cols // c
    sensed_bits = nact * sensed_per_sub
    if spec.page_bits is not None:
        if not traits.supports_page_mode:
            ok &= False
        else:
            ok &= sensed_bits == spec.page_bits
    idx = _np.nonzero(ok)[0]
    return (
        w[idx],
        b[idx],
        s[idx],
        c[idx],
        m[idx],
        rows[idx],
        cols[idx],
        nact[idx],
        sensed_bits[idx],
        sensed_per_sub[idx],
    )


def prefilter_grid(
    spec: ArraySpec,
    max_ndwl: int = 64,
    max_ndbl: int = 64,
    nspd_values: tuple[float, ...] | None = None,
    max_mux: int | None = None,
) -> list[tuple[OrgParams, OrgGeometry]]:
    """Vectorized structural pre-filter over the entire candidate grid.

    Thin object-materializing wrapper over :func:`survivor_arrays`:
    the same survivors, in the same enumeration order, with the same
    geometries as filtering :func:`enumerate_orgs` through
    :func:`prefilter_org` -- but computed as one numpy batch.
    """
    w, b, s, c, m, rows, cols, nact, sensed_bits, sensed_per_sub = (
        survivor_arrays(spec, max_ndwl, max_ndbl, nspd_values, max_mux)
    )
    return [
        (
            OrgParams(int(w[i]), int(b[i]), float(s[i]), int(c[i]), int(m[i])),
            OrgGeometry(
                rows=int(rows[i]),
                cols=int(cols[i]),
                nact=int(nact[i]),
                sensed_bits=int(sensed_bits[i]),
                sense_amps_per_sub=int(sensed_per_sub[i]),
            ),
        )
        for i in range(len(w))
    ]


def _powers_up_to(limit: int) -> tuple[int, ...]:
    powers = []
    value = 1
    while value <= limit:
        powers.append(value)
        value *= 2
    return tuple(powers)
