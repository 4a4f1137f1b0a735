"""The numpy subarray table against the scalar ``Subarray`` reference.

:func:`repro.array.kernels.subarray_table` computes, for many
``(rows, cols)`` shapes at once, what one
:class:`~repro.array.subarray.Subarray` per shape reports.  These
properties hold it to bit identity over every registered technology,
every periphery device type, the exact and the interpolated nodes and
random shape sets -- including the single-row decoder branch and
charge-share shapes on both sides of the sense-signal limit:

* every table column equals the reference property bit for bit;
* the feasible mask equals ``check_sense_feasible``;
* a batch's table equals the one-row tables of its shapes, in any
  order.

It also pins what the table's consumers rely on: ``evaluate_batch``
builds no ``Subarray``, and a winner materialized from the cache
reuses the table's decoder instead of sizing chains again.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.array import kernels
from repro.array import subarray as subarray_module
from repro.array.organization import MAX_COLS, ArraySpec, EvalCache
from repro.array.subarray import InfeasibleSubarray, Subarray
from repro.circuits.drivers import build_chain
from repro.tech.cells import CellTech
from repro.tech.devices import DEVICE_TYPES
from repro.tech.nodes import technology
from repro.tech.registry import SensingScheme, registered_names

#: The exact nodes and the three the benchmark interpolates.
NODES = (32.0, 38.0, 45.0, 50.0, 65.0, 78.0, 90.0)


def reference(sub: Subarray) -> dict:
    """The reference value of every keyed table column."""
    return {
        "width": sub.width,
        "height": sub.height,
        "area": sub.area,
        "cell_area": sub.cell_area,
        "blcap": sub.bitline_capacitance,
        "dec_delay": sub.decoder.delay,
        "wl_delay": sub.decoder.wordline_delay,
        "e_wordline": sub.e_wordline,
        "t_bitline": sub.t_bitline,
        "t_sense": sub.t_sense,
        "t_writeback": sub.t_writeback,
        "t_precharge": sub.t_precharge,
        "e_sense_per_pair": sub.e_sense_per_pair,
        "leak_fixed": sub.leakage_fixed,
        "amp_leak": sub.sense_amp.leakage(),
    }


def bits(value: float) -> str:
    """Exact IEEE-754 spelling: tells -0.0 from 0.0, no tolerance."""
    return float(value).hex()


def feasible(sub: Subarray) -> bool:
    try:
        sub.check_sense_feasible()
    except InfeasibleSubarray:
        return False
    return True


@functools.lru_cache(maxsize=None)
def sense_limit_rows(name: str, node: float, periph: str) -> int | None:
    """The fewest rows whose charge-share signal falls below the 60 mV
    limit (the signal only shrinks with rows), or None for a
    current-latch technology."""
    cell_tech = CellTech(name)
    if cell_tech.traits.sensing is not SensingScheme.CHARGE_SHARE:
        return None
    tech = technology(node)
    cell = tech.cell(cell_tech, periph)
    dev = tech.device(periph)
    lo, hi = 1, 1 << 20
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(Subarray(tech, cell, dev, mid, 64)):
            lo = mid + 1
        else:
            hi = mid
    return lo


@st.composite
def table_case(draw):
    """A technology point plus a set of shapes to tabulate."""
    name = draw(st.sampled_from(registered_names()))
    node = draw(st.sampled_from(NODES))
    periph = draw(st.sampled_from(DEVICE_TYPES))
    shapes = set(draw(st.lists(
        st.tuples(st.integers(1, 4096), st.integers(1, MAX_COLS)),
        min_size=1, max_size=12,
    )))
    # The single-row decoder branch, every time.
    shapes.add((1, draw(st.integers(1, MAX_COLS))))
    limit = sense_limit_rows(name, node, periph)
    if limit is not None:
        cols = draw(st.integers(1, MAX_COLS))
        shapes.update((rows, cols) for rows in (limit - 1, limit, limit + 1))
    shapes = draw(st.permutations(sorted(shapes)))
    output_bits = draw(st.sampled_from((8, 64, 512)))
    return name, node, periph, shapes, output_bits


def tabulate(name, node, periph, shapes):
    tech = technology(node)
    spec = ArraySpec(
        capacity_bits=1 << 20, output_bits=64,
        cell_tech=name, periph_device_type=periph,
    )
    rows = np.array([r for r, _ in shapes], dtype=np.int64)
    cols = np.array([c for _, c in shapes], dtype=np.int64)
    return tech, spec, kernels.subarray_table(tech, spec, rows, cols)


@given(case=table_case())
@settings(max_examples=120, deadline=None)
def test_table_matches_subarray_reference(case):
    name, node, periph, shapes, output_bits = case
    tech, spec, table = tabulate(name, node, periph, shapes)
    cell = tech.cell(spec.cell_tech, periph)
    dev = tech.device(periph)
    e_writebl = kernels.write_bitline_energy(
        cell, output_bits, table.column("blcap")
    )
    for u, (rows, cols) in enumerate(shapes):
        sub = Subarray(tech, cell, dev, rows, cols)
        ok = feasible(sub)
        assert bool(table.feasible[u]) == ok, (name, node, periph, rows)
        if not ok:
            assert table.decoders[u] is None
            assert not table.values[u].any()
            continue
        assert table.decoders[u] == sub.decoder
        for column, expected in reference(sub).items():
            assert bits(table.column(column)[u]) == bits(expected), (
                name, node, periph, rows, cols, column
            )
        assert bits(e_writebl[u]) == bits(sub.e_write_bitlines(output_bits))


@given(case=table_case(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_batch_table_equals_per_shape_tables(case, data):
    name, node, periph, shapes, _ = case
    _, _, batch = tabulate(name, node, periph, shapes)
    order = data.draw(st.permutations(range(len(shapes))))
    _, _, shuffled = tabulate(name, node, periph, [shapes[i] for i in order])
    for u, shape in enumerate(shapes):
        _, _, single = tabulate(name, node, periph, [shape])
        for other, row in ((single, 0), (shuffled, order.index(u))):
            assert bool(other.feasible[row]) == bool(batch.feasible[u])
            assert other.values[row].tobytes() == batch.values[u].tobytes()
            assert other.decoders[row] == batch.decoders[u]


def sram_spec() -> ArraySpec:
    return ArraySpec(capacity_bits=2 << 20, output_bits=512, assoc=8)


def test_evaluate_batch_builds_no_subarray(monkeypatch):
    built = []
    original = Subarray.__post_init__

    def counting(self):
        built.append((self.rows, self.cols))
        original(self)

    monkeypatch.setattr(subarray_module.Subarray, "__post_init__", counting)
    spec = sram_spec()
    tech = technology(32)
    cache = EvalCache()
    batch = kernels.survivor_batch(spec)
    ev = kernels.evaluate_batch(tech, spec, batch, cache)
    assert ev.size > 0
    assert cache.subarray_misses > 0
    assert built == []


def test_materialized_subarray_reuses_the_table_decoder():
    spec = sram_spec()
    tech = technology(32)
    cache = EvalCache()
    batch = kernels.survivor_batch(spec)
    kernels.evaluate_batch(tech, spec, batch, cache)
    rows, cols = int(batch.rows[0]), int(batch.cols[0])
    misses, hits = cache.subarray_misses, cache.subarray_hits
    chains = build_chain.cache_info()
    sub = cache.subarray(tech, spec, rows, cols)
    decoder = sub.decoder
    assert build_chain.cache_info()[:2] == chains[:2]
    assert (cache.subarray_misses, cache.subarray_hits) == (misses, hits + 1)
    assert cache.subarray(tech, spec, rows, cols) is sub
    fresh = Subarray(
        tech, tech.cell(spec.cell_tech, spec.periph_device_type),
        tech.device(spec.periph_device_type), rows, cols,
    )
    assert decoder == fresh.decoder
    assert reference(sub) == reference(fresh)


@pytest.mark.parametrize("scalar_first", [True, False])
def test_either_tier_serves_the_other(scalar_first):
    """A shape known in either form is one miss, whichever path asked
    first, and the table it yields is the same."""
    spec = sram_spec()
    tech = technology(32)
    batch = kernels.survivor_batch(spec)
    shapes = sorted(set(zip(batch.rows.tolist(), batch.cols.tolist())))
    cold = kernels.evaluate_batch(tech, spec, batch, EvalCache())
    cache = EvalCache()
    if scalar_first:
        for rows, cols in shapes:
            cache.subarray(tech, spec, rows, cols)
        ev = kernels.evaluate_batch(tech, spec, batch, cache)
    else:
        ev = kernels.evaluate_batch(tech, spec, batch, cache)
        for rows, cols in shapes:
            cache.subarray(tech, spec, rows, cols)
    assert cache.subarray_misses == len(shapes)
    assert cache.subarray_hits == batch.size
    assert ev.area.tobytes() == cold.area.tobytes()
    assert ev.t_access.tobytes() == cold.t_access.tobytes()
