"""Solver entry points replayed call by call through the layers.

The traced run must attribute time to layers without instrumenting
``repro``, so these functions redo what ``solve_batch``, ``solve`` and
``solve_main_memory`` do at ``jobs=1`` with the vectorized kernels --
the same layer calls in the same order on the same objects -- with a
span around each call.  The answers must be identical to the public
API's; the benchmark checks that on every traced op.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from repro.array import kernels
from repro.array.mainmem import derive_energies, derive_timing
from repro.array.organization import (
    EvalCache,
    build_organization,
    org_grid_size,
)
from repro.core.cacti import (
    MainMemorySolution,
    data_array_spec,
    tag_array_spec,
)
from repro.core.config import DENSITY_OPTIMIZED, OptimizationTarget
from repro.core.optimizer import NoFeasibleSolution
from repro.core.results import Solution
from repro.core.solvecache import metrics_to_dict
from repro.tech.nodes import technology


def digest(answer) -> str:
    """A short content hash of one solved answer, for exact comparison."""
    if isinstance(answer, Solution):
        payload = [metrics_to_dict(answer.data),
                   metrics_to_dict(answer.tag) if answer.tag else None]
    elif isinstance(answer, MainMemorySolution):
        payload = [metrics_to_dict(answer.metrics),
                   dataclasses.asdict(answer.timing),
                   dataclasses.asdict(answer.energies)]
    else:
        payload = answer
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _swept(spec, target):
    # The optimizer sweeps the spec under the target's repeater penalty.
    if target.max_repeater_delay_penalty == spec.max_repeater_delay_penalty:
        return spec
    return dataclasses.replace(
        spec, max_repeater_delay_penalty=target.max_repeater_delay_penalty
    )


def optimize(tr, tech, spec, target, eval_cache, cache, flush):
    """``optimizer.optimize`` at jobs=1: store lookup, then prefilter,
    evaluate, rank and winner materialization, then store write."""
    if not kernels.enabled():
        raise RuntimeError("the replay mirrors the vectorized kernel path")
    if cache is not None:
        with tr.span("store.get"):
            hit = cache.get(spec, target, tech.node_nm)
        if hit is not None:
            tr.count("store.hits")
            return hit
        tr.count("store.misses")
    if eval_cache is None:
        eval_cache = EvalCache()
    swept = _swept(spec, target)
    with tr.span("array.prefilter"):
        batch = kernels.survivor_batch(swept)
    tr.count("array.enumerated", org_grid_size(swept))
    tr.count("array.survivors", batch.size)
    designed = eval_cache.subarray_misses
    with tr.span("array.evaluate"):
        ev = kernels.evaluate_batch(tech, swept, batch, eval_cache)
    tr.count("array.unique_subarrays", eval_cache.subarray_misses - designed)
    tr.count("array.feasible", ev.size)
    if ev.size == 0:
        raise NoFeasibleSolution(
            f"no feasible organization for {swept.capacity_bits} bits"
        )
    with tr.span("array.rank"):
        winner = int(kernels.rank_batch(ev, target)[0])
    with tr.span("array.materialize"):
        org, geometry = ev.batch.org_at(winner)
        best = build_organization(
            tech, swept, org, cache=eval_cache, geometry=geometry
        )
    if cache is not None:
        with tr.span("store.put"):
            cache.put(spec, target, tech.node_nm, best)
        tr.count("store.writes")
        if flush:
            with tr.span("store.flush"):
                cache.flush()
    return best


def _flush_on_exit(tr, cache):
    # Leaving the outermost ``with cache:`` performs the deferred flush.
    with tr.span("store.flush"):
        cache.__exit__(None, None, None)


def solve(tr, spec, target=None, eval_cache=None, cache=None, boundary=True):
    """``core.cacti.solve``; ``boundary`` is False inside a batch, whose
    exit then performs the one deferred store flush."""
    target = target or OptimizationTarget()
    with tr.span("core.solve"):
        with tr.span("tech.technology"):
            tech = technology(spec.node_nm)
        if eval_cache is None:
            eval_cache = EvalCache()
        hold = cache is not None and boundary
        if hold:
            cache.__enter__()
        try:
            data = optimize(tr, tech, data_array_spec(spec), target,
                            eval_cache, cache, flush=False)
            tag = None
            if spec.is_cache:
                tag = optimize(tr, tech, tag_array_spec(spec), target,
                               eval_cache, cache, flush=False)
        finally:
            if hold:
                _flush_on_exit(tr, cache)
    return Solution(spec=spec, data=data, tag=tag)


def solve_batch(tr, specs, targets, cache=None):
    """``core.cacti.solve_batch`` at jobs=1: one EvalCache and one
    deferred store flush span the batch."""
    eval_cache = EvalCache()
    if cache is not None:
        cache.__enter__()
    try:
        return [
            solve(tr, spec, target, eval_cache, cache, boundary=False)
            for spec, target in zip(specs, targets)
        ]
    finally:
        if cache is not None:
            _flush_on_exit(tr, cache)


def solve_main_memory(tr, spec, node_nm, cache=None):
    """``core.cacti.solve_main_memory`` with its default target."""
    with tr.span("core.main_memory"):
        with tr.span("tech.technology"):
            tech = technology(node_nm)
        array_spec = spec.array_spec()
        metrics = optimize(tr, tech, array_spec, DENSITY_OPTIMIZED, None,
                           cache, flush=True)
        timing = derive_timing(spec, metrics, 0.0)
        vdd_cell = tech.cell(
            array_spec.cell_tech, array_spec.periph_device_type
        ).vdd_cell
        energies = derive_energies(spec, metrics, vdd_cell)
    return MainMemorySolution(
        spec=spec, metrics=metrics, timing=timing, energies=energies
    )
