"""``llc_study``: cells of the paper's stacked-LLC study.

Each op is one study cell, ``run_study(source="cacti", jobs=1)`` over
one (NPB profile, Table 3 configuration) pair.  The seed picks 2 of the
8 NPB profiles and the simulation seed; every round runs those 2
profiles on all 6 configurations.  The Table 3 solves are warmed in
set-up, so the solver does no work inside the timed loop.

Why: ``sim`` and ``workloads`` do nearly all of the work and the solver
runs only in set-up, so a solver or import change is predicted to
leave ``ops_per_s`` here unchanged.
"""

from __future__ import annotations

import dataclasses
import random

from repro.power.hierarchy import hierarchy_power
from repro.power.system import SystemPower, scaled_core_power
from repro.sim.system import run_workload
from repro.study.runner import DEFAULT_SCALE, RunResult, run_study
from repro.study.table3 import (
    CONFIG_NAMES,
    CPU_HZ,
    build_energy_model,
    build_system_config,
    solve_table3,
)
from repro.validation.compare import validate_ddr3
from repro.workloads.npb import NPB_PROFILES
from repro.workloads.synthetic import event_stream

import golden as golden_file
import replay

#: Instructions per thread for each profile.  The profiles differ in
#: memory intensity, so these budgets are set to make one profile's six
#: cells cost about the same host time (about 1.5 s on a 2-core x86
#: host); any 2 of the 8 profiles then make rounds of similar cost.
INSTRUCTIONS = {
    "bt.C": 3000,
    "cg.C": 2500,
    "ft.B": 2600,
    "is.C": 2000,
    "lu.C": 2300,
    "mg.B": 2100,
    "sp.C": 2600,
    "ua.C": 8000,
}
PROFILES_PER_RUN = 2
SCALE = DEFAULT_SCALE

ROUND = PROFILES_PER_RUN * len(CONFIG_NAMES)
OP_PROCESSES = False
#: Nominal cells per second, which sizes the fixed traced op list.
TRACE_RATE = 5.0


def _choose(seed: int):
    rng = random.Random(seed)
    chosen = rng.sample(NPB_PROFILES, PROFILES_PER_RUN)
    return ([p.with_instructions(INSTRUCTIONS[p.name]) for p in chosen],
            rng.randrange(1 << 16))


def params(seed: int) -> dict:
    profiles, sim_seed = _choose(seed)
    return {
        "seed": seed,
        "profiles": {p.name: p.instructions_per_thread for p in profiles},
        "configs": list(CONFIG_NAMES),
        "sim_seed": sim_seed,
        "scale": SCALE,
        "source": "cacti",
    }


def ops(seed: int):
    """Round after round over the chosen profiles x all configurations."""
    profiles, _sim_seed = _choose(seed)
    while True:
        for profile in profiles:
            for config in CONFIG_NAMES:
                yield (profile.name, config)


def _record(result: RunResult) -> dict:
    s = result.stats
    return {
        "cycles": s.cycles,
        "instructions": s.instructions,
        "breakdown": dataclasses.asdict(s.breakdown),
        "counters": dataclasses.asdict(s.counters),
        "read_latency_sum": s.read_latency_sum,
        "read_count": s.read_count,
        "power": result.power.as_dict(),
        "energy_delay": result.system.energy_delay,
    }


class LlcStudy:
    """State of one study run: the chosen profiles and answer checks."""

    def __init__(self, seed, tmp, golden, tr):
        self.golden = golden
        profiles, self.sim_seed = _choose(seed)
        self.profiles = {p.name: p for p in profiles}
        with tr.span("study.table3"):
            solve_table3()
        self.threads = build_system_config(
            "nol3", source="cacti", scale=SCALE).num_threads
        self.built: dict = {}  # replay's per-configuration memo
        self.first: dict = {}  # cell -> digest of its first answer
        self.app_instructions: dict = {}
        self.sums = {"sim.instructions": 0, "sim.l3_reads": 0,
                     "sim.mem_reads": 0, "sim.coherence_invalidations": 0}
        self.ddr3_err_pct = None

    def close(self):
        pass

    def run(self, op):
        name, config = op
        result = run_study(profiles=(self.profiles[name],),
                           configs=(config,), source="cacti", scale=SCALE,
                           seed=self.sim_seed, jobs=1)
        return result.get(name, config)

    def replay(self, op, tr):
        """``run_study`` for one cell, as ``runner.run_one`` does it."""
        name, config = op
        if config not in self.built:
            with tr.span("study.config"):
                system_config = build_system_config(
                    config, source="cacti", scale=SCALE)
            with tr.span("study.energy_model"):
                energy_model = build_energy_model(config, source="cacti")
            self.built[config] = (system_config, energy_model)
        system_config, energy_model = self.built[config]
        scaled = self.profiles[name].scaled(SCALE)
        threads = system_config.num_threads
        with tr.span("workloads.event_gen"):
            streams = [list(event_stream(scaled, i, num_threads=threads,
                                         seed=self.sim_seed))
                       for i in range(threads)]
        tr.count("sim.events", sum(map(len, streams)))
        with tr.span("sim.run"):
            stats = run_workload(system_config, lambda i: iter(streams[i]))
        emitted = sum(e[1] for s in streams for e in s
                      if e[0] in ("step", "compute"))
        if stats.instructions != emitted:
            raise AssertionError(
                f"{op}: {stats.instructions} instructions retired, "
                f"{emitted} in the event streams")
        duration = stats.cycles / CPU_HZ
        with tr.span("power.hierarchy"):
            breakdown = hierarchy_power(energy_model, stats, duration)
        system = SystemPower(core=scaled_core_power(),
                             memory_hierarchy=breakdown,
                             execution_time=duration)
        return RunResult(app=name, config=config, stats=stats,
                         power=breakdown, system=system)

    def digest(self, op, answer) -> str:
        return replay.digest(_record(answer))

    def check(self, index, op, answer) -> list[str]:
        name, _config = op
        s = answer.stats
        problems = []
        parts = dataclasses.asdict(s.breakdown)
        threads = self.threads
        if min(parts.values()) < 0:
            problems.append(f"{op}: negative cycle category")
        # Each thread's breakdown sums to its own cycles; the run's
        # cycles are the slowest thread's.
        total = s.breakdown.total
        if not (s.cycles * (1 - 1e-9) <= total
                <= threads * s.cycles * (1 + 1e-9)):
            problems.append(f"{op}: breakdown {total} vs cycles {s.cycles}")
        budget = self.profiles[name].instructions_per_thread * threads
        first = self.app_instructions.setdefault(name, s.instructions)
        if s.instructions < budget or s.instructions != first:
            problems.append(f"{op}: {s.instructions} instructions, profile "
                            f"asks {budget} ({first} on another config)")
        d = self.digest(op, answer)
        if self.first.setdefault(op, d) != d:
            problems.append(f"{op}: a repeated cell gave another answer")
        c = s.counters
        self.sums["sim.instructions"] += int(s.instructions)
        self.sums["sim.l3_reads"] += c.l3_reads
        self.sums["sim.mem_reads"] += c.mem_reads
        self.sums["sim.coherence_invalidations"] += c.coherence_invalidations
        return problems

    def finish(self, done_ops) -> list[str]:
        self.ddr3_err_pct, problems = golden_file.check_ddr3(
            self.golden, validate_ddr3())
        return problems

    def extras(self, op_seconds: float) -> dict:
        return {"sim_minstr_per_s": (
            self.sums["sim.instructions"] / op_seconds / 1e6
            if op_seconds else 0.0, "Minstr/s")}

    def pass_counts(self) -> dict:
        return dict(self.sums)
