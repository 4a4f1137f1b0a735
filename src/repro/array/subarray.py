"""Subarray model: cells, wordlines, bitlines, sensing, restore, precharge.

A subarray is a contiguous grid of memory cells with its own wordline
drivers (one edge), sense amplifiers (another edge), and a share of the row
decoder.  CACTI-D models every cell technology in one framework --
identical peripheral methodology -- and differs only where the declared
:class:`~repro.tech.registry.CellTraits` genuinely differ:

* Current-latch technologies (SRAM, STT-RAM) actively drive one bitline of
  a precharged pair until the required sense differential develops; the
  cell is undisturbed.
* Charge-share technologies (the DRAMs) read by destructive charge
  redistribution; the sense amplifier must regenerate the full bitline
  swing, which also writes the data back into the cell; afterwards the
  bitlines must be restored to VDD/2 (precharge).

This module never names a technology: all dispatch is on trait values,
so a technology registered with :mod:`repro.tech.registry` works here
without modification.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.circuits.decoder import DecoderMetrics, WordlineLoad, design_decoder
from repro.circuits.drivers import WireLoad
from repro.circuits.senseamp import SenseAmp, charge_share_signal
from repro.tech.cells import CellParams
from repro.tech.devices import TEMPERATURE_LEAKAGE_FACTOR, DeviceParams
from repro.tech.nodes import Technology
from repro.tech.registry import CellTraits, SensingScheme

#: RC settling multiplier for full-swing charging (to ~90 %).
_T_SETTLE = 2.3

#: RC settling multiplier to ~1 % precision, for bitline equalization of
#: technologies whose precharge level is the sensing reference.
_T_SETTLE_PRECISE = 4.6

#: Cell-restore slowdown: as the storage node approaches full level the
#: access device's overdrive (VPP - Vth - Vcell) collapses, so the final
#: restore is several RC constants slower than the nominal channel
#: resistance suggests.
_RESTORE_SLOWDOWN = 3.0

#: Width of a bitline precharge/equalize device, in feature sizes.
_PRECHARGE_WIDTH_F = 8.0

#: Edge overhead of a subarray: wordline-driver strip width, in feature
#: sizes.  The sense-amp strip height comes from the cell traits (DRAM
#: strips are taller -- the amps are big relative to the tiny cell pitch).
_DRIVER_STRIP_F = 20.0


class InfeasibleSubarray(ValueError):
    """Raised when a candidate subarray violates an electrical constraint."""


@dataclass(frozen=True)
class Subarray:
    """One subarray of ``rows x cols`` cells plus its edge circuitry."""

    tech: Technology
    cell: CellParams
    periph: DeviceParams
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise InfeasibleSubarray("subarray must have >= 1 row and column")

    @property
    def traits(self) -> CellTraits:
        """Declared behavior of this subarray's cell technology."""
        return self.cell.tech.traits

    # ------------------------------------------------------------------ #
    # Geometry

    @cached_property
    def cell_array_width(self) -> float:
        return self.cols * self.cell.width

    @cached_property
    def cell_array_height(self) -> float:
        return self.rows * self.cell.height

    @cached_property
    def width(self) -> float:
        """Subarray width including the wordline-driver strip (m)."""
        return self.cell_array_width + _DRIVER_STRIP_F * self.tech.feature_size

    @cached_property
    def height(self) -> float:
        """Subarray height including the sense-amp strip (m)."""
        strip = self.traits.sense_strip_height_f
        return self.cell_array_height + strip * self.tech.feature_size

    @cached_property
    def area(self) -> float:
        return self.width * self.height + self.decoder.area

    @cached_property
    def cell_area(self) -> float:
        """Area of the cells alone, for area-efficiency accounting (m^2)."""
        return self.rows * self.cols * self.cell.area

    # ------------------------------------------------------------------ #
    # Wordline and bitline electricals

    @cached_property
    def wordline_load(self) -> WordlineLoad:
        wire = self.tech.local
        # How many access gates one wordline drives per cell is a trait:
        # two for a 6T pair, one for 1T1C or 1T1MTJ cells.
        gates_per_cell = self.traits.wordline_gates_per_cell
        c_gate = (
            gates_per_cell * self.cell.access_width * self.periph.c_gate
        )
        c = self.cols * (c_gate + wire.c_per_m * self.cell.width)
        r = self.cols * wire.r_per_m * self.cell.width
        return WordlineLoad(
            resistance=r,
            capacitance=c,
            pitch=self.cell.height,
            voltage=self.cell.wordline_voltage,
        )

    @cached_property
    def bitline_capacitance(self) -> float:
        """Total capacitance of one bitline (F)."""
        wire = self.tech.bitline_wire(self.cell.tech)
        junction = (
            self.cell.access_c_drain * self.cell.access_width
            + self.cell.access_c_junction
        )
        # In a folded array only every other cell contacts a given
        # bitline, but the twin bitline runs the full height either way;
        # junction loading halves, wire loading does not.
        if self.traits.folded_bitline:
            junction = 0.5 * junction
        per_cell = junction + wire.c_per_m * self.cell.height
        return self.rows * per_cell

    @cached_property
    def bitline_resistance(self) -> float:
        """Total resistance of one bitline (ohm)."""
        wire = self.tech.bitline_wire(self.cell.tech)
        return self.rows * wire.r_per_m * self.cell.height

    # ------------------------------------------------------------------ #
    # Row decode

    @cached_property
    def decoder(self) -> DecoderMetrics:
        predec_wire = WireLoad(
            resistance=self.tech.semi_global.r_per_m * self.cell_array_height,
            capacitance=self.tech.semi_global.c_per_m * self.cell_array_height,
        )
        return design_decoder(
            self.periph,
            self.tech.feature_size,
            self.rows,
            self.wordline_load,
            predec_wire,
        )

    # ------------------------------------------------------------------ #
    # Sensing

    @cached_property
    def sense_amp(self) -> SenseAmp:
        return SenseAmp(self.periph, self.tech.feature_size)

    @cached_property
    def sense_signal(self) -> float:
        """Available sense signal (V); full rail for current-latch cells."""
        if self.traits.sensing is SensingScheme.CURRENT_LATCH:
            return self.periph.vdd
        assert self.cell.storage_cap is not None
        return charge_share_signal(
            self.cell.storage_cap, self.bitline_capacitance, self.cell.vdd_cell
        )

    @cached_property
    def t_bitline(self) -> float:
        """Bitline signal development time after the wordline rises (s)."""
        if self.traits.sensing is SensingScheme.CHARGE_SHARE:
            # Charge redistribution through the access device and bitline.
            assert self.cell.storage_cap is not None
            r_access = self.cell.access_r_channel / self.cell.access_width
            c_share = (
                self.cell.storage_cap
                * self.bitline_capacitance
                / (self.cell.storage_cap + self.bitline_capacitance)
            )
            return _T_SETTLE * (
                r_access + self.bitline_resistance / 2.0
            ) * c_share
        # Current-latch: constant-current discharge to the sense swing
        # plus the distributed bitline RC.
        swing = 0.10 * self.periph.vdd
        discharge = self.bitline_capacitance * swing / self.cell.read_current
        return discharge + 0.38 * self.bitline_resistance * self.bitline_capacitance

    @cached_property
    def t_sense(self) -> float:
        """Sense-amp latching (and, if restoring, regeneration) time (s)."""
        if self.traits.sensing is SensingScheme.CHARGE_SHARE:
            try:
                return self.sense_amp.restore_delay(
                    self.bitline_capacitance,
                    self.sense_signal,
                    self.cell.vdd_cell,
                )
            except ValueError as exc:
                raise InfeasibleSubarray(str(exc)) from exc
        return self.sense_amp.latch_delay()

    @cached_property
    def t_writeback(self) -> float:
        """Wordline hold time beyond sensing that closes the row (s).

        For destructive-read cells this is the storage-node restore after
        the bitline reaches full rail.  For non-destructive cells it is
        the technology's declared write-pulse overhead (the row cycle is
        sized for the worst-case operation, a write): zero when writes
        are no slower than reads.  Either way it extends the row cycle,
        not the access time.
        """
        if self.traits.destructive_read:
            assert self.cell.storage_cap is not None
            r_access = self.cell.access_r_channel / self.cell.access_width
            return (
                _T_SETTLE * _RESTORE_SLOWDOWN * r_access * self.cell.storage_cap
            )
        return self.traits.write_pulse_time

    @cached_property
    def t_precharge(self) -> float:
        """Bitline precharge/equalize time (s).

        Technologies whose precharge level is the sensing reference (the
        charge-share DRAMs) must settle to well within the sense margin,
        so they pay a precision settling factor and a half-rail swing;
        others only erase the small read swing.  Both facts are traits.
        """
        w_pre = _PRECHARGE_WIDTH_F * self.tech.feature_size
        r_pre = self.periph.r_eff / w_pre
        swing_factor = self.traits.precharge_swing_fraction
        settle = _T_SETTLE_PRECISE if self.traits.precise_precharge else _T_SETTLE
        c = self.bitline_capacitance
        # Equalization shorts the pair, halving the effective excursion.
        return settle * r_pre * c * swing_factor + 0.38 * (
            self.bitline_resistance * c * swing_factor
        )

    # ------------------------------------------------------------------ #
    # Per-access energies

    @cached_property
    def e_sense_per_pair(self) -> float:
        """Energy of sensing one bitline pair on a read (J)."""
        if self.traits.sensing is SensingScheme.CHARGE_SHARE:
            return self.sense_amp.restore_energy(
                self.bitline_capacitance, self.cell.vdd_cell
            )
        return self.sense_amp.latch_energy(self.bitline_capacitance)

    def e_read_bitlines(self, num_sensed: int) -> float:
        """Energy of sensing ``num_sensed`` bitline pairs on a read (J)."""
        return num_sensed * self.e_sense_per_pair

    def e_write_bitlines(self, num_written: int) -> float:
        """Energy of driving ``num_written`` bitline pairs on a write (J).

        The write-swing trait scales the full-rail energy: 1.0 when every
        written pair swings (SRAM), 0.5 when writes flip already-sensed
        bitlines to the new data (DRAM restore-then-flip).
        """
        vdd = self.cell.vdd_cell
        return (
            num_written
            * self.bitline_capacitance
            * vdd
            * vdd
            * self.traits.write_swing_fraction
        )

    @cached_property
    def e_wordline(self) -> float:
        """Energy of one wordline selection, including decode (J)."""
        return self.decoder.energy

    @cached_property
    def leakage_fixed(self) -> float:
        """Sense-amp-independent leakage (W): cells + decoder."""
        cell_leak = (
            self.rows
            * self.cols
            * self.cell.access_i_off
            * TEMPERATURE_LEAKAGE_FACTOR
            * self.cell.access_width
            * self.cell.vdd_cell
        )
        # Supply-leakage paths per cell are a trait: 2.0 for a 6T cell
        # (both inverters leak; access devices are off), 0.0 when cell
        # leakage drains a storage node instead of the supply -- that
        # costs refresh energy (modeled separately), not static power.
        cell_leak *= self.traits.cell_leak_paths
        return cell_leak + self.decoder.leakage

    def leakage(self, num_sense_amps: int) -> float:
        """Static leakage of this subarray (W): cells + decoder + amps."""
        return self.leakage_fixed + num_sense_amps * self.sense_amp.leakage()

    # ------------------------------------------------------------------ #
    # Composite row timings

    @cached_property
    def t_row_to_sense(self) -> float:
        """Decode + wordline + bitline + sense: data latched in the amps (s)."""
        return (
            self.decoder.delay + self.t_bitline + self.t_sense
        )

    @cached_property
    def t_row_cycle(self) -> float:
        """Full destructive-read row cycle: sense + restore + precharge (s)."""
        return self.t_row_to_sense + self.t_writeback + self.t_precharge

    def check_sense_feasible(self) -> None:
        """Raise InfeasibleSubarray if the sensing signal budget is violated.

        Only charge-share technologies have a signal-margin feasibility
        limit (too many cells per bitline for the storage capacitor);
        current-latch sensing always develops full differential.
        """
        if self.traits.sensing is SensingScheme.CHARGE_SHARE:
            _ = self.t_sense  # triggers the signal-margin check
