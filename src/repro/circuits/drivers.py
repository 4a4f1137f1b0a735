"""Driver chains: logical-effort-sized buffer chains driving RC loads.

Used for wordline drivers, predecoder drivers, bitline-mux drivers, output
drivers, and H-tree branch drivers.  A chain is sized with
:mod:`repro.circuits.logical_effort`, realized as concrete gates, and then
evaluated for delay (Horowitz, slope-propagated), dynamic energy, leakage,
and layout area (optionally pitch-matched/folded).

A sweep sizes the same few chains for thousands of candidate subarrays,
across specs as well as within one, so :func:`build_chain` is memoized
process-wide in a bounded LRU (:data:`CHAIN_MEMO_SIZE` entries).  Equal
inputs run the same float operations and the result is frozen, so a
memo hit is bit-identical to a fresh build.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.circuits import logical_effort as le
from repro.circuits.gates import Gate, horowitz, inverter, min_width, nand
from repro.tech.devices import DeviceParams


#: Entries in the process-wide :func:`build_chain` memo.  Worker
#: processes each hold their own.
CHAIN_MEMO_SIZE = 1024


@dataclass(frozen=True, slots=True)
class ChainMetrics:
    """Evaluated properties of a sized driver chain."""

    delay: float  #: input-to-load-switched delay (s)
    ramp_out: float  #: output ramp time, for slope propagation (s)
    energy: float  #: dynamic energy per switching event (J)
    leakage: float  #: static leakage power (W)
    area: float  #: layout area (m^2)
    num_stages: int
    c_in: float  #: input capacitance presented to the previous stage (F)


@dataclass(frozen=True, slots=True)
class WireLoad:
    """A distributed RC wire hanging off the chain output."""

    resistance: float  #: total wire resistance (ohm)
    capacitance: float  #: total wire capacitance (F)

    @property
    def elmore(self) -> float:
        """Distributed-RC 50% delay contribution of the wire itself (s)."""
        return 0.38 * self.resistance * self.capacitance


def _widths_from_cap(device: DeviceParams, c_in: float) -> float:
    """NMOS width of an inverter whose total input cap is ``c_in``."""
    return c_in / (device.c_gate * (1.0 + device.n_to_p_ratio))


def _memoized(build):
    """Wrap ``build`` in the bounded, process-wide chain memo.

    Every call is keyed on the same flat tuple of values, whether its
    arguments came positionally or by keyword: the wire enters as its
    resistance and capacitance.  ``typed=True`` keeps equal values of
    different types (``3`` and ``3.0`` gate inputs) apart.  The wrapper
    exposes ``cache_info``/``cache_clear`` and the unmemoized
    ``__wrapped__``.
    """

    @functools.lru_cache(maxsize=CHAIN_MEMO_SIZE, typed=True)
    def cached(device, feature_size, c_load, wire_r, wire_c,
               first_gate_inputs, pitch, c_in_floor, voltage_swing):
        wire = None if wire_r is None else WireLoad(wire_r, wire_c)
        return build(device, feature_size, c_load, wire, first_gate_inputs,
                     pitch, c_in_floor, voltage_swing)

    @functools.wraps(build)
    def memo(device, feature_size, c_load, wire=None, first_gate_inputs=1,
             pitch=None, c_in_floor=None, voltage_swing=None):
        if wire is None:
            wire_r = wire_c = None
        else:
            wire_r, wire_c = wire.resistance, wire.capacitance
        return cached(device, feature_size, c_load, wire_r, wire_c,
                      first_gate_inputs, pitch, c_in_floor, voltage_swing)

    memo.cache_info = cached.cache_info
    memo.cache_clear = cached.cache_clear
    return memo


@_memoized
def build_chain(
    device: DeviceParams,
    feature_size: float,
    c_load: float,
    wire: WireLoad | None = None,
    first_gate_inputs: int = 1,
    pitch: float | None = None,
    c_in_floor: float | None = None,
    voltage_swing: float | None = None,
) -> ChainMetrics:
    """Size and evaluate a buffer chain driving ``c_load`` (+ optional wire).

    ``first_gate_inputs`` > 1 makes the first stage a NAND of that many
    inputs (decoder row gates, enable-gated drivers).  ``pitch`` folds every
    stage into the given layout pitch.  ``voltage_swing`` overrides the
    energy swing (e.g. a boosted DRAM wordline at VPP).
    """
    w_min = min_width(device, feature_size)
    c_unit = w_min * device.c_gate * (1.0 + device.n_to_p_ratio)
    c_in = max(c_unit, c_in_floor or 0.0)

    c_total = c_load + (wire.capacitance if wire else 0.0)
    g_first = le.le_nand(first_gate_inputs) if first_gate_inputs > 1 else 1.0
    sized = le.size_path(c_total, c_in, logical_efforts=(g_first,))

    gates: list[Gate] = []
    for i, cap in enumerate(sized.input_caps):
        if i == 0 and first_gate_inputs > 1:
            # NAND input cap per input = (n*w + 2w) c_gate with stack sizing.
            w = cap / (device.c_gate * (first_gate_inputs + device.n_to_p_ratio))
            gates.append(nand(device, first_gate_inputs, max(w, w_min)))
        else:
            gates.append(inverter(device, max(_widths_from_cap(device, cap),
                                              w_min)))

    delay = 0.0
    ramp = 0.0
    for i, gate in enumerate(gates):
        if i + 1 < len(gates):
            stage_load = gates[i + 1].c_in
            d, ramp = gate.delay(stage_load, ramp)
            delay += d
        else:
            # Final stage drives the wire + load through the wire resistance.
            r_wire = wire.resistance if wire else 0.0
            c_wire = wire.capacitance if wire else 0.0
            tau = gate.r_drive * (gate.c_out + c_wire + c_load)
            tau += r_wire * (c_wire / 2.0 + c_load)
            d = horowitz(ramp, tau)
            delay += d
            ramp = 2.0 * d

    vdd = device.vdd
    swing = voltage_swing if voltage_swing is not None else vdd
    c_switched = sum(g.c_in + g.c_out for g in gates)
    c_switched += wire.capacitance if wire else 0.0
    c_switched += c_load
    energy = c_switched * swing * swing

    leakage = sum(g.leakage() for g in gates)
    area = sum(g.area(feature_size, pitch) for g in gates)
    return ChainMetrics(
        delay=delay,
        ramp_out=ramp,
        energy=energy,
        leakage=leakage,
        area=area,
        num_stages=len(gates),
        c_in=gates[0].c_in,
    )
