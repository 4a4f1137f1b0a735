"""The fault-tolerant execution engine: policies, journal, fault plans.

Exercises :mod:`repro.core.resilience` through
:func:`repro.core.parallel.parallel_map` with cheap picklable tasks --
no solver involved -- so every failure mode (worker exception, hard
worker kill, hung task, interrupted run) is fast and deterministic.
"""

import json
import time

import pytest

from repro.core.optimizer import SweepStats
from repro.core.parallel import parallel_map
from repro.core.resilience import (
    JOURNAL_VERSION,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    Journal,
    ResiliencePolicy,
    TaskFailure,
    task_key,
)
from repro.obs import Obs

# Module-level task functions: picklable for worker processes, and the
# in-process (jobs=1) engine calls them directly so module globals in
# the parent count executions.

_EXECUTIONS: list = []


def _double(x):
    return x * 2


def _counted_double(x):
    _EXECUTIONS.append(x)
    return x * 2


def _fail_on_negative(x):
    if x < 0:
        raise RuntimeError(f"bad payload {x}")
    return x * 2


def _sleep_then(payload):
    delay, value = payload
    time.sleep(delay)
    return value


# --------------------------------------------------------------------- #
# task_key


def test_task_key_is_stable_and_normalized():
    a = task_key("stage", {"node": 32, "cap": 1024})
    assert a == task_key("stage", {"node": 32, "cap": 1024})
    # Numeric normalization: 32 and 32.0 describe the same task.
    assert a == task_key("stage", {"node": 32.0, "cap": 1024.0})
    # Stage and content both separate keys.
    assert a != task_key("other", {"node": 32, "cap": 1024})
    assert a != task_key("stage", {"node": 45, "cap": 1024})


def test_task_key_handles_dataclasses_and_enums():
    from repro.core.config import MemorySpec, OptimizationTarget

    spec = MemorySpec(capacity_bytes=32 << 10, block_bytes=64,
                      associativity=8, node_nm=32.0)
    k1 = task_key("s", {"spec": spec, "target": OptimizationTarget()})
    k2 = task_key("s", {"spec": spec, "target": OptimizationTarget()})
    assert k1 == k2
    bigger = MemorySpec(capacity_bytes=64 << 10, block_bytes=64,
                        associativity=8, node_nm=32.0)
    assert k1 != task_key(
        "s", {"spec": bigger, "target": OptimizationTarget()}
    )


# --------------------------------------------------------------------- #
# Journal


def test_journal_round_trip(tmp_path):
    path = tmp_path / "run.journal"
    journal = Journal(path)
    journal.record("k1", "stage.a", {"answer": 42})
    journal.record("k2", "stage.b", (1, 2.5, "x"))
    journal.close()

    reloaded = Journal(path)
    assert len(reloaded) == 2
    assert "k1" in reloaded and "k2" in reloaded
    assert reloaded.result("k1") == {"answer": 42}
    assert reloaded.result("k2") == (1, 2.5, "x")
    assert reloaded.stages() == {"stage.a": 1, "stage.b": 1}


def test_journal_skips_torn_and_mismatched_lines(tmp_path):
    path = tmp_path / "run.journal"
    journal = Journal(path)
    journal.record("good", "s", 7)
    journal.close()
    with path.open("a") as fh:
        fh.write(json.dumps({"v": "other-version", "key": "bad",
                             "data": "eA=="}) + "\n")
        fh.write("not json at all\n")
        fh.write('{"v": "%s", "key": "torn", "da' % JOURNAL_VERSION)
    reloaded = Journal(path)
    assert len(reloaded) == 1
    assert reloaded.result("good") == 7


def test_journal_appends_across_sessions(tmp_path):
    path = tmp_path / "run.journal"
    first = Journal(path)
    first.record("k1", "s", "one")
    first.close()
    second = Journal(path)
    second.record("k2", "s", "two")
    second.close()
    assert len(Journal(path)) == 2


# --------------------------------------------------------------------- #
# FaultPlan


def test_fault_plan_fires_deterministically():
    plan = FaultPlan((FaultSpec("s", 1, "raise", trips=2),))
    plan.fire("s", 0, attempt=1)  # wrong index: no fire
    plan.fire("other", 1, attempt=1)  # wrong stage: no fire
    with pytest.raises(FaultInjected):
        plan.fire("s", 1, attempt=1)
    with pytest.raises(FaultInjected):
        plan.fire("s", 1, attempt=2)
    plan.fire("s", 1, attempt=3)  # past its trips: no fire


def test_kill_fault_degrades_to_exception_in_parent():
    # os._exit in the parent would take the whole run (and the test
    # runner) down; in-process the kill action must raise instead.
    plan = FaultPlan((FaultSpec("s", 0, "kill"),))
    with pytest.raises(FaultInjected):
        plan.fire("s", 0, attempt=1)


def test_fault_spec_rejects_unknown_action():
    with pytest.raises(ValueError):
        FaultSpec("s", 0, "explode")


# --------------------------------------------------------------------- #
# Policy validation


def test_policy_validates_inputs():
    with pytest.raises(ValueError):
        ResiliencePolicy(on_error="ignore")
    with pytest.raises(ValueError):
        ResiliencePolicy(max_retries=-1)
    with pytest.raises(ValueError):
        ResiliencePolicy(timeout_s=0.0)


def test_retries_only_allowed_in_retry_mode():
    assert ResiliencePolicy(on_error="retry", max_retries=3).retries_allowed == 3
    assert ResiliencePolicy(on_error="skip", max_retries=3).retries_allowed == 0
    assert ResiliencePolicy(on_error="raise", max_retries=3).retries_allowed == 0


def test_journal_bearing_policy_requires_keys(tmp_path):
    policy = ResiliencePolicy(journal=Journal(tmp_path / "j"))
    with pytest.raises(ValueError):
        parallel_map(_double, [1, 2], 1, resilience=policy)


# --------------------------------------------------------------------- #
# Error policies through parallel_map


@pytest.mark.parametrize("jobs", [1, 2])
def test_skip_mode_records_failures_in_place(jobs):
    obs = Obs()
    stats = SweepStats(obs.metrics)
    out = parallel_map(
        _fail_on_negative,
        [1, -1, 3, -2],
        jobs,
        span_name="s",
        resilience=ResiliencePolicy(on_error="skip"),
        obs=obs,
    )
    assert out[0] == 2 and out[2] == 6
    assert isinstance(out[1], TaskFailure) and isinstance(out[3], TaskFailure)
    assert out[1].index == 1 and out[1].stage == "s"
    assert out[1].error_type == "RuntimeError"
    assert out[1].attempts == 1  # skip mode never retries
    assert stats.tasks_failed == 2
    assert stats.retries == 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_raise_mode_propagates(jobs):
    with pytest.raises(RuntimeError, match="bad payload"):
        parallel_map(
            _fail_on_negative,
            [1, -1, 3],
            jobs,
            resilience=ResiliencePolicy(on_error="raise"),
        )


@pytest.mark.parametrize("jobs", [1, 2])
def test_retry_recovers_transient_faults(jobs):
    # The fault trips only the first attempt of task 1; the retry runs
    # clean and the map completes with full results.
    obs = Obs()
    stats = SweepStats(obs.metrics)
    policy = ResiliencePolicy(
        on_error="retry",
        max_retries=2,
        backoff_s=0.01,
        fault_plan=FaultPlan((FaultSpec("s", 1, "raise", trips=1),)),
    )
    out = parallel_map(
        _double, [10, 20, 30], jobs, span_name="s",
        resilience=policy, obs=obs,
    )
    assert out == [20, 40, 60]
    assert stats.retries == 1
    assert stats.tasks_failed == 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_retry_exhaustion_degrades_to_failure(jobs):
    # trips above max_retries: every attempt fails, the task degrades
    # to a recorded TaskFailure after 1 + max_retries attempts.
    obs = Obs()
    stats = SweepStats(obs.metrics)
    policy = ResiliencePolicy(
        on_error="retry",
        max_retries=2,
        backoff_s=0.01,
        fault_plan=FaultPlan((FaultSpec("s", 0, "raise", trips=99),)),
    )
    out = parallel_map(
        _double, [10, 20], jobs, span_name="s",
        resilience=policy, obs=obs,
    )
    assert isinstance(out[0], TaskFailure)
    assert out[0].attempts == 3
    assert out[1] == 40
    assert stats.retries == 2
    assert stats.tasks_failed == 1


def test_kill_fault_triggers_pool_rebuild():
    # Task 1 hard-exits its worker on the first attempt, breaking the
    # pool.  The engine harvests survivors, re-runs the in-flight tasks
    # in the parent, rebuilds the pool, and completes every result.
    obs = Obs()
    stats = SweepStats(obs.metrics)
    policy = ResiliencePolicy(
        on_error="retry",
        max_retries=2,
        backoff_s=0.01,
        fault_plan=FaultPlan((FaultSpec("s", 1, "kill", trips=1),)),
    )
    out = parallel_map(
        _double, list(range(6)), 2, span_name="s",
        resilience=policy, obs=obs,
    )
    assert out == [0, 2, 4, 6, 8, 10]
    assert stats.pool_rebuilds >= 1


def test_timeout_cancels_hung_task():
    # Task 0 sleeps far past the budget; the engine cancels it by pool
    # rebuild and the innocents complete unscathed.
    obs = Obs()
    stats = SweepStats(obs.metrics)
    policy = ResiliencePolicy(on_error="skip", timeout_s=0.4)
    out = parallel_map(
        _sleep_then,
        [(5.0, "hung"), (0.0, "a"), (0.0, "b")],
        2,
        span_name="s",
        resilience=policy,
        obs=obs,
    )
    assert isinstance(out[0], TaskFailure)
    assert out[0].timed_out
    assert out[1] == "a" and out[2] == "b"
    assert stats.timeouts >= 1
    assert stats.pool_rebuilds >= 1


# --------------------------------------------------------------------- #
# Checkpoint / resume


def test_resume_executes_only_unfinished_tasks(tmp_path):
    path = tmp_path / "map.journal"
    payloads = [1, 2, 3, 4]
    keys = [task_key("s", {"x": p}) for p in payloads]

    # First run completes half the map, then the fault interrupts it.
    _EXECUTIONS.clear()
    policy = ResiliencePolicy(
        journal=Journal(path),
        fault_plan=FaultPlan((FaultSpec("s", 2, "raise", trips=99),)),
    )
    with pytest.raises(FaultInjected):
        parallel_map(
            _counted_double, payloads, 1, span_name="s",
            resilience=policy, keys=keys,
        )
    policy.journal.close()
    assert _EXECUTIONS == [1, 2]  # tasks 0 and 1 ran and were journaled
    assert len(Journal(path)) == 2

    # The resumed run restores those results and executes only the rest.
    _EXECUTIONS.clear()
    resumed = ResiliencePolicy(journal=Journal(path))
    out = parallel_map(
        _counted_double, payloads, 1, span_name="s",
        resilience=resumed, keys=keys,
    )
    resumed.journal.close()
    assert out == [2, 4, 6, 8]
    assert _EXECUTIONS == [3, 4]  # the journaled half never re-ran
    assert len(Journal(path)) == 4

    # A third run is a pure restore: zero executions.
    _EXECUTIONS.clear()
    final = ResiliencePolicy(journal=Journal(path))
    out = parallel_map(
        _counted_double, payloads, 1, span_name="s",
        resilience=final, keys=keys,
    )
    final.journal.close()
    assert out == [2, 4, 6, 8]
    assert _EXECUTIONS == []


def test_resume_across_job_counts(tmp_path):
    # A journal written by a parallel run restores into a serial run
    # (and vice versa): the task shape is identical in both modes.
    path = tmp_path / "map.journal"
    payloads = [5, 6, 7]
    keys = [task_key("s", {"x": p}) for p in payloads]
    policy = ResiliencePolicy(journal=Journal(path))
    out = parallel_map(
        _double, payloads, 2, span_name="s",
        resilience=policy, keys=keys,
    )
    policy.journal.close()
    assert out == [10, 12, 14]

    _EXECUTIONS.clear()
    resumed = ResiliencePolicy(journal=Journal(path))
    out = parallel_map(
        _counted_double, payloads, 1, span_name="s",
        resilience=resumed, keys=keys,
    )
    resumed.journal.close()
    assert out == [10, 12, 14]
    assert _EXECUTIONS == []  # fully restored, nothing executed
