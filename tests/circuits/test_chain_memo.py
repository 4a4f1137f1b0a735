"""The process-wide driver-chain memo is numerically invisible.

:func:`repro.circuits.drivers.build_chain` is memoized in a bounded LRU
shared by every solve in the process.  A hit must return exactly what
the unmemoized function (``build_chain.__wrapped__``) computes for the
same inputs, however the call was spelled, and a memo warmed by
unrelated solves must leave every golden number unchanged.
"""

import json
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.circuits.drivers import CHAIN_MEMO_SIZE, WireLoad, build_chain
from repro.core.cacti import solve_batch
from repro.core.config import (
    DENSITY_OPTIMIZED,
    ENERGY_DELAY_OPTIMIZED,
    MemorySpec,
    OptimizationTarget,
)
from repro.core.solvecache import metrics_to_dict
from repro.obs import Obs
from repro.tech.devices import DEVICE_TYPES, NODES_NM, device

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "data" / "golden_triad.json")
    .read_text()
)
TARGETS = {
    "balanced": OptimizationTarget(),
    "density": DENSITY_OPTIMIZED,
    "energy-delay": ENERGY_DELAY_OPTIMIZED,
}

HP32 = device("hp", 32)
F32 = 32e-9

DEVICES = [(device(kind, node), node * 1e-9)
           for kind in DEVICE_TYPES for node in NODES_NM]


@st.composite
def chain_inputs(draw):
    """One ``build_chain`` call: (args, kwargs) over every input axis."""
    dev, f = draw(st.sampled_from(DEVICES))
    wire = draw(st.none() | st.builds(
        WireLoad,
        resistance=st.floats(1.0, 1e5),
        capacitance=st.floats(1e-16, 1e-11),
    ))
    # Without a wire the load alone must be positive to size a path.
    c_load = draw(st.floats(0.0 if wire else 1e-17, 1e-11))
    kwargs = {}
    if draw(st.booleans()):
        kwargs["first_gate_inputs"] = draw(st.integers(1, 4))
    if draw(st.booleans()):
        kwargs["pitch"] = draw(st.floats(2.5, 40.0)) * f
    if draw(st.booleans()):
        kwargs["c_in_floor"] = draw(st.floats(1e-17, 1e-13))
    if draw(st.booleans()):
        kwargs["voltage_swing"] = dev.vdd * draw(st.floats(1.0, 1.8))
    return (dev, f, c_load), {"wire": wire, **kwargs}


def same_chain(a, b) -> bool:
    """Field-for-field bit identity (float reprs round-trip exactly)."""
    return repr(a) == repr(b)


@given(call=chain_inputs())
@settings(max_examples=300, deadline=None)
def test_memo_matches_unmemoized_build(call):
    args, kwargs = call
    fresh = build_chain.__wrapped__(*args, **kwargs)
    first = build_chain(*args, **kwargs)
    hits = build_chain.cache_info().hits
    second = build_chain(*args, **kwargs)
    assert same_chain(first, fresh)
    assert second is first
    assert build_chain.cache_info().hits == hits + 1


class TestCoveredShapes:
    """The decoder's chain shapes, each against the unmemoized build."""

    CALLS = {
        "bare": dict(c_load=1e-13),
        "wire": dict(c_load=0.0, wire=WireLoad(800.0, 2e-13)),
        "boosted": dict(c_load=1e-13, voltage_swing=1.5 * HP32.vdd),
        "pitch_folded": dict(c_load=1e-12, pitch=3 * F32),
        "nand_first_gate": dict(c_load=1e-13, first_gate_inputs=3),
        "c_in_floor": dict(c_load=1e-13, c_in_floor=5e-15),
        "wordline": dict(
            c_load=0.0, wire=WireLoad(1200.0, 3e-13), first_gate_inputs=2,
            pitch=4 * F32, voltage_swing=1.4 * HP32.vdd,
        ),
    }

    def test_each_shape(self):
        for name, kwargs in self.CALLS.items():
            build_chain.cache_clear()
            miss = build_chain(HP32, F32, **kwargs)
            hit = build_chain(HP32, F32, **kwargs)
            fresh = build_chain.__wrapped__(HP32, F32, **kwargs)
            assert same_chain(miss, fresh), name
            assert hit is miss, name
            assert build_chain.cache_info()[:2] == (1, 1), name


def test_positional_and_keyword_calls_share_one_entry():
    build_chain.cache_clear()
    positional = build_chain(
        HP32, F32, 1e-13, WireLoad(500.0, 1e-13), 2, 3 * F32, None, None
    )
    keyword = build_chain(
        HP32, F32, c_load=1e-13, first_gate_inputs=2, pitch=3 * F32,
        wire=WireLoad(500.0, 1e-13),
    )
    assert keyword is positional
    info = build_chain.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_memo_is_bounded():
    info = build_chain.cache_info()
    assert info.maxsize is not None
    assert info.maxsize == CHAIN_MEMO_SIZE
    build_chain.cache_clear()
    for i in range(CHAIN_MEMO_SIZE + 8):
        build_chain(HP32, F32, c_load=(i + 1) * 1e-15)
    assert build_chain.cache_info().currsize == CHAIN_MEMO_SIZE


def unrelated_sweep() -> list:
    """48 specs: 4 technologies x 6 capacities x 2 nodes, 8-way."""
    return [
        MemorySpec(capacity_bytes=kb << 10, block_bytes=64,
                   associativity=8, node_nm=node, cell_tech=tech)
        for tech in ("sram", "lp-dram", "comm-dram", "stt-ram")
        for kb in (64, 128, 512, 1024, 4096, 8192)
        for node in (32, 45)
    ]


def golden_records(solutions) -> list:
    """The golden file's view of each solution: one JSON round trip of
    its data and tag metrics (exact, as floats print shortest-repr)."""
    def encode(metrics):
        if metrics is None:
            return None
        return json.loads(json.dumps(metrics_to_dict(metrics)))

    return [
        {"data": encode(s.data), "tag": encode(s.tag)} for s in solutions
    ]


def test_golden_triad_warm_memo_equals_cold():
    """A memo warmed (and churned) by unrelated solves changes no
    recorded number."""
    specs = [MemorySpec(**r["spec"]) for r in GOLDEN["solves"]]
    targets = [TARGETS[r["target"]] for r in GOLDEN["solves"]]
    expected = [
        {"data": r["data"], "tag": r["tag"]} for r in GOLDEN["solves"]
    ]

    build_chain.cache_clear()
    cold = solve_batch(specs, targets, jobs=1)
    build_chain.cache_clear()
    solve_batch(unrelated_sweep(), jobs=1)
    warm_start = build_chain.cache_info()
    assert warm_start.currsize == CHAIN_MEMO_SIZE  # full, evicting
    warm = solve_batch(specs, targets, jobs=1)
    assert build_chain.cache_info().hits > warm_start.hits
    assert golden_records(cold) == expected
    assert golden_records(warm) == expected


class TestObsCounts:
    def test_in_process_deltas_match_cache_info(self):
        specs = unrelated_sweep()[:4]
        obs = Obs()
        before = build_chain.cache_info()
        solve_batch(specs, jobs=1, obs=obs)
        after = build_chain.cache_info()
        counters = obs.metrics.snapshot()["counters"]
        assert counters["circuits.chain_memo.hits"] == after.hits - before.hits
        assert (counters["circuits.chain_memo.misses"]
                == after.misses - before.misses)

    def test_pooled_workers_ship_their_deltas(self):
        specs = unrelated_sweep()[:4]
        obs = Obs()
        before = build_chain.cache_info()
        solve_batch(specs, jobs=2, obs=obs)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["workers.absorbed"] == len(specs)
        assert (counters["circuits.chain_memo.hits"]
                + counters["circuits.chain_memo.misses"]) > 0
        # The workers sized the chains; the parent's memo did nothing.
        assert build_chain.cache_info()[:2] == before[:2]
