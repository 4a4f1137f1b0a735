"""Multi-process batch execution engine for design-space sweeps.

CACTI-D's value is sweeping *many* configurations: batches of
independent solves across a study matrix, sensitivity sweeps around a
base point, and precomputed design-space grids.  Each is embarrassingly
parallel at the spec level, and this module gives them one engine:
:func:`parallel_map`, an order-preserving ``ProcessPoolExecutor`` map
with a worker initializer that installs a worker-local
:class:`~repro.array.organization.EvalCache`.  The partitioning grid
*inside* one solve is not sharded: the vectorized kernels
(:mod:`repro.array.kernels`) evaluate it in-process faster than worker
processes could be started.

Determinism is the contract.  Results come back in payload order, never
completion order, and worker-local eval caches cannot change numbers:
cached and uncached construction produce the same frozen objects
performing the same computations.

Workers ship their spans and counters home as an
:meth:`~repro.obs.Obs.export_payload` (picklable, no shared state),
which the parent stitches in with :meth:`~repro.obs.Obs.absorb_worker`.
``jobs=1`` everywhere falls back to the plain serial path with no
executor, no forks, and no pickling.

Fault tolerance is opt-in: pass a
:class:`~repro.core.resilience.ResiliencePolicy` to :func:`parallel_map`
and failed payloads come back as
:class:`~repro.core.resilience.TaskFailure` records instead of
poisoning the pool -- with bounded retries, per-task wall-clock
timeouts (cancelled by rebuilding the pool), automatic
``BrokenProcessPool`` recovery (rebuild + serial re-run of the
in-flight tasks in the parent), and checkpoint/resume through the
policy's journal.  Without a policy the engine behaves exactly as
before: the first worker exception propagates.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from typing import Callable, Sequence

from repro.core.resilience import (
    ResiliencePolicy,
    TaskFailure,
    TaskTimeout,
)
from repro.obs import maybe_span

#: Worker-local cross-candidate cache, created by the pool initializer
#: (one per worker process, reused across every task that worker runs).
_WORKER_EVAL_CACHE = None

#: Worker-local persistent solve caches, keyed by cache-file path.  A
#: worker task that opened a fresh :class:`SolveCache` per task would
#: re-parse the whole JSON file from disk every time; memoizing by path
#: (mirroring the worker-local EvalCache) loads it once per worker.
_WORKER_SOLVE_CACHES: dict = {}


#: Sentinel worker-count request: let the engine decide (see
#: :func:`effective_jobs`).  The CLI default.
AUTO_JOBS = "auto"

#: Under ``jobs="auto"``, fan out only when at least this many tasks
#: are on the table.  Every task the engine maps is a whole solve (or
#: a study cell), coarse enough that two of them already amortize the
#: worker forks; one task runs in-process.
MIN_PARALLEL_TASKS = 2


def resolve_jobs(jobs: int | str | None) -> int:
    """Normalize a worker-count request.

    ``None``, a non-positive count, or :data:`AUTO_JOBS` means "all
    available cores" (respecting CPU affinity where the platform
    exposes it); any positive count is taken literally.  Callers that
    know their task count should prefer :func:`effective_jobs`, which
    gives ``"auto"`` its serial-fallback heuristic.
    """
    if jobs == AUTO_JOBS:
        jobs = None
    if jobs is None or jobs <= 0:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux
            return max(1, os.cpu_count() or 1)
    return int(jobs)


def effective_jobs(jobs: int | str | None, n_tasks: int | None = None) -> int:
    """Resolve a jobs request, giving ``"auto"`` its heuristic.

    Explicit requests are honored as :func:`resolve_jobs` always has
    (``1`` serial, ``N`` literal, ``None``/``<= 0`` all cores).
    ``"auto"`` picks all cores only when that can plausibly win: it
    falls back to serial when the machine has a single usable core
    (workers would just add fork and pickling overhead) or when the
    workload -- ``n_tasks``, if the caller knows it -- is below
    :data:`MIN_PARALLEL_TASKS`.
    """
    if jobs != AUTO_JOBS:
        return resolve_jobs(jobs)
    cores = resolve_jobs(None)
    if cores <= 1:
        return 1
    if n_tasks is not None and n_tasks < MIN_PARALLEL_TASKS:
        return 1
    return cores


def _init_worker() -> None:
    global _WORKER_EVAL_CACHE
    from repro.array.organization import EvalCache

    _WORKER_EVAL_CACHE = EvalCache()


def worker_eval_cache():
    """The calling process's worker-local EvalCache (created on demand,
    so worker task functions also run unchanged in the parent)."""
    if _WORKER_EVAL_CACHE is None:
        _init_worker()
    return _WORKER_EVAL_CACHE


def worker_solve_cache(spec):
    """The calling process's SolveCache for ``spec`` (one per store).

    ``spec`` is a store URL or path as produced by
    :attr:`~repro.core.solvecache.SolveCache.url` -- parents thread it
    to workers so every process opens the same backend with the same
    options.  Worker tasks share one persistent cache instance per
    store spec for the life of the process, so the backing records are
    loaded once per worker instead of once per task.  Concurrent
    writers stay safe on every backend: the JSON backend's saves are
    atomic merge-on-load replaces, and the sqlite backend serializes
    row upserts on the database write lock (see
    :class:`~repro.core.solvecache.SolveCache`).
    """
    if spec is None:
        return None
    from repro.core.solvecache import SolveCache

    key = os.fspath(spec)
    cache = _WORKER_SOLVE_CACHES.get(key)
    if cache is None:
        cache = _WORKER_SOLVE_CACHES[key] = SolveCache(key)
    return cache


def parallel_map(
    fn: Callable,
    payloads: Sequence,
    jobs: int,
    *,
    obs=None,
    span_name: str | None = None,
    resilience: ResiliencePolicy | None = None,
    keys: Sequence[str] | None = None,
) -> list:
    """Order-preserving map over worker processes.

    ``jobs=1`` (or a single payload) runs ``fn`` serially in-process --
    no executor, no pickling.  Results always come back in payload
    order, never completion order, so downstream merges are
    deterministic.  Without a ``resilience`` policy a worker exception
    propagates to the caller.

    ``obs`` + ``span_name`` trace the map: the serial path records one
    ``span_name`` span per task, the parallel path one enclosing
    ``<span_name>.map`` span (per-task spans inside workers are the
    task function's job to ship home).

    With a :class:`~repro.core.resilience.ResiliencePolicy` the map is
    fault tolerant: per-task error capture (``on_error`` policy with
    bounded exponential-backoff retries), per-task wall-clock timeouts
    with cancellation, pool rebuild + parent-side serial re-run of
    in-flight tasks on ``BrokenProcessPool``, and -- when the policy
    carries a journal and ``keys`` names each task -- checkpointed
    results restored without re-execution.  Failed slots hold
    :class:`~repro.core.resilience.TaskFailure` records in skip/retry
    mode.  ``obs`` counts ``resilience.retries``, ``.timeouts``,
    ``.tasks_failed``, ``.pool_rebuilds`` and ``.journal_restored``.
    """
    payloads = list(payloads)
    if resilience is not None:
        return _ResilientMap(
            fn,
            payloads,
            jobs,
            resilience,
            keys=keys,
            stage=span_name or "parallel_map",
            obs=obs,
        ).run()
    jobs = min(resolve_jobs(jobs), len(payloads))
    if jobs <= 1:
        if obs is None or span_name is None:
            return [fn(p) for p in payloads]
        results = []
        for i, p in enumerate(payloads):
            with obs.span(span_name, index=i):
                results.append(fn(p))
        return results
    with maybe_span(
        obs,
        f"{span_name}.map" if span_name else "parallel_map",
        jobs=jobs,
        tasks=len(payloads),
    ):
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker
        ) as pool:
            return list(pool.map(fn, payloads))


# --------------------------------------------------------------------- #
# The fault-tolerant execution engine.


def _policy_task(wrapped: tuple):
    """Worker-side task shim: fire any planned fault, then run the task.

    Ships ``(fn, payload, stage, index, attempt, fault_plan)`` instead
    of the bare payload so deterministic fault injection happens inside
    whichever process executes the task.
    """
    fn, payload, stage, index, attempt, fault_plan = wrapped
    if fault_plan is not None:
        fault_plan.fire(stage, index, attempt)
    return fn(payload)


class _ResilientMap:
    """One fault-tolerant map execution (see :func:`parallel_map`)."""

    def __init__(
        self, fn, payloads, jobs, policy, *, keys, stage, obs
    ):
        if policy.journal is not None and keys is None:
            raise ValueError(
                "a journal-bearing policy needs per-task keys"
            )
        if keys is not None and len(keys) != len(payloads):
            raise ValueError(
                f"{len(payloads)} payloads but {len(keys)} keys"
            )
        self.fn = fn
        self.payloads = payloads
        self.policy = policy
        self.keys = keys
        self.stage = stage
        self.obs = obs
        self.results: list = [None] * len(payloads)
        self.todo = self._restore_from_journal()
        self.jobs = min(resolve_jobs(jobs), max(1, len(self.todo)))

    # -- accounting ---------------------------------------------------- #

    def _count(self, what: str, n: int = 1) -> None:
        if self.obs is not None:
            self.obs.inc(f"resilience.{what}", n)

    # -- journal ------------------------------------------------------- #

    def _restore_from_journal(self) -> list[int]:
        journal = self.policy.journal
        if journal is None:
            return list(range(len(self.payloads)))
        todo = []
        for i in range(len(self.payloads)):
            if self.keys[i] in journal:
                self.results[i] = journal.result(self.keys[i])
            else:
                todo.append(i)
        if self.obs is not None and len(todo) < len(self.payloads):
            self.obs.inc(
                "resilience.journal_restored",
                len(self.payloads) - len(todo),
            )
        return todo

    def _success(self, index: int, value) -> None:
        self.results[index] = value
        journal = self.policy.journal
        if journal is not None:
            journal.record(self.keys[index], self.stage, value)

    # -- failure policy ------------------------------------------------ #

    def _handle_error(self, index: int, attempt: int, exc) -> bool:
        """Apply the policy to one failed attempt.

        Returns True when the task should be re-attempted (the caller
        re-queues it); records a TaskFailure or re-raises otherwise.
        """
        if attempt <= self.policy.retries_allowed:
            self._count("retries")
            time.sleep(self.policy.backoff(attempt))
            return True
        if self.policy.on_error == "raise":
            raise exc
        self._count("tasks_failed")
        self.results[index] = TaskFailure(
            index=index,
            stage=self.stage,
            error_type=type(exc).__name__,
            message=str(exc),
            attempts=attempt,
        )
        return False

    # -- execution ----------------------------------------------------- #

    def run(self) -> list:
        if not self.todo:
            return self.results
        with maybe_span(
            self.obs,
            f"{self.stage}.resilient_map",
            jobs=self.jobs,
            tasks=len(self.todo),
            skipped=len(self.payloads) - len(self.todo),
        ):
            if self.jobs <= 1:
                self._run_serial()
            else:
                self._run_parallel()
        return self.results

    def _attempt_serial(self, index: int, attempt: int):
        return _policy_task((
            self.fn,
            self.payloads[index],
            self.stage,
            index,
            attempt,
            self.policy.fault_plan,
        ))

    def _run_serial(self) -> None:
        # In-process execution cannot be preempted, so ``timeout_s`` is
        # not enforced here -- timeouts need a worker pool to cancel.
        for index in self.todo:
            self._run_one_serially(index, first_attempt=1)

    def _run_one_serially(self, index: int, first_attempt: int) -> None:
        attempt = first_attempt
        while True:
            try:
                value = self._attempt_serial(index, attempt)
            except Exception as exc:
                if self._handle_error(index, attempt, exc):
                    attempt += 1
                    continue
                return
            self._success(index, value)
            return

    def _run_parallel(self) -> None:
        pending: deque = deque((i, 1) for i in self.todo)
        inflight: dict = {}  # future -> (index, attempt, submitted_at)
        pool = None
        try:
            while pending or inflight:
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=self.jobs, initializer=_init_worker
                    )
                # Windowed submission: at most ``jobs`` tasks in flight,
                # so a submitted task starts (nearly) immediately and
                # submission-relative deadlines track execution time.
                while pending and len(inflight) < self.jobs:
                    index, attempt = pending.popleft()
                    wrapped = (
                        self.fn,
                        self.payloads[index],
                        self.stage,
                        index,
                        attempt,
                        self.policy.fault_plan,
                    )
                    try:
                        fut = pool.submit(_policy_task, wrapped)
                    except BrokenExecutor:
                        pending.appendleft((index, attempt))
                        pool = self._recover_broken_pool(
                            pool, inflight, pending
                        )
                        break
                    inflight[fut] = (index, attempt, time.monotonic())
                if not inflight:
                    continue
                timeout = self._next_deadline(inflight)
                done, _ = wait(
                    inflight, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    pool = self._expire_overdue(pool, inflight, pending)
                    continue
                broken = False
                for fut in done:
                    index, attempt, _ = inflight.pop(fut)
                    try:
                        value = fut.result()
                    except BrokenExecutor:
                        broken = True
                        # The parent re-runs this task itself: a task
                        # that kills every worker it lands on must not
                        # kill pool after pool.
                        self._run_one_serially(
                            index, first_attempt=attempt + 1
                        )
                    except Exception as exc:
                        if self._handle_error(index, attempt, exc):
                            pending.append((index, attempt + 1))
                    else:
                        self._success(index, value)
                if broken:
                    pool = self._recover_broken_pool(
                        pool, inflight, pending
                    )
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    def _next_deadline(self, inflight: dict) -> float | None:
        """Seconds until the earliest in-flight task goes overdue."""
        if self.policy.timeout_s is None:
            return None
        now = time.monotonic()
        return max(
            0.0,
            min(
                submitted + self.policy.timeout_s - now
                for _, _, submitted in inflight.values()
            ),
        )

    def _expire_overdue(self, pool, inflight: dict, pending: deque):
        """Cancel tasks past their wall-clock budget.

        A running task can only be cancelled by tearing its worker
        down, and the executor cannot kill one worker selectively --
        so the pool is rebuilt: overdue tasks go through the error
        policy, in-flight innocents are re-queued without being
        charged an attempt.
        """
        now = time.monotonic()
        overdue = [
            (fut, info)
            for fut, info in inflight.items()
            if now >= info[2] + self.policy.timeout_s
        ]
        if not overdue:
            return pool  # spurious wakeup; deadlines not reached yet
        for fut, (index, attempt, _) in overdue:
            del inflight[fut]
            self._count("timeouts")
            exc = TaskTimeout(
                f"{self.stage}[{index}] exceeded "
                f"{self.policy.timeout_s:g}s wall clock"
            )
            if self._handle_error(index, attempt, exc):
                pending.append((index, attempt + 1))
        for fut, (index, attempt, _) in list(inflight.items()):
            if fut.done() and fut.exception() is None:
                self._success(index, fut.result())
            else:
                pending.append((index, attempt))
        inflight.clear()
        self._count("pool_rebuilds")
        pool.shutdown(wait=False, cancel_futures=True)
        return None

    def _recover_broken_pool(self, pool, inflight: dict, pending: deque):
        """BrokenProcessPool: harvest survivors, re-run the rest serially.

        Futures that completed before the crash keep their results; the
        tasks that were in flight when the pool died are re-run in the
        parent (serially, charged one attempt -- one of them likely
        killed the worker, and the parent must survive running it).
        """
        self._count("pool_rebuilds")
        for fut, (index, attempt, _) in list(inflight.items()):
            if fut.done() and fut.exception() is None:
                self._success(index, fut.result())
            else:
                self._run_one_serially(index, first_attempt=attempt + 1)
        inflight.clear()
        pool.shutdown(wait=False, cancel_futures=True)
        return None
