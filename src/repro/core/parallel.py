"""The one fan-out engine for batches, sweeps and study matrices.

CACTI-D's value is sweeping *many* configurations: batches of
independent solves across a study matrix, sensitivity sweeps around a
base point, and precomputed design-space grids.  Each is embarrassingly
parallel at the spec level, and this module gives them one engine:
:func:`parallel_map`, an order-preserving map that runs every task
under a :class:`~repro.core.resilience.ResiliencePolicy` (the default
policy fails fast: the first task exception propagates).  The
partitioning grid *inside* one solve is not sharded: the vectorized
kernels (:mod:`repro.array.kernels`) evaluate it in-process faster
than worker processes could be started.

The engine owns the one real difference between its two ways of
running tasks.  A task function takes its payload and reads what it
may share with the other tasks of its map from :func:`task_env`:

* *In-process* (``jobs`` resolves to 1): the caller's
  :class:`~repro.array.organization.EvalCache` (or one fresh cache per
  call), the caller's :class:`~repro.core.solvecache.SolveCache`
  instance -- held open, so the whole call does one deferred flush --
  and the caller's :class:`~repro.obs.Obs` itself.  Nothing is
  exported, absorbed or pickled.
* *Pooled*: each worker process keeps one ``EvalCache`` and one
  ``SolveCache`` per store for its life, and records each task into a
  worker ``Obs``.  The worker shim ships that ``Obs``'s
  :meth:`~repro.obs.Obs.export_payload` home next to the task's value
  and busy time; the parent stitches it in with
  :meth:`~repro.obs.Obs.absorb_worker` and sets the
  ``parallel.worker_utilization`` gauge.

Determinism is the contract.  Results come back in payload order, never
completion order, and worker-local eval caches cannot change numbers:
cached and uncached construction produce the same frozen objects
performing the same computations.

Failures are policy: failed payloads come back as
:class:`~repro.core.resilience.TaskFailure` records under ``skip`` /
``retry`` instead of poisoning the pool -- with bounded retries,
per-task wall-clock timeouts (cancelled by rebuilding the pool),
automatic ``BrokenProcessPool`` recovery (rebuild + in-process re-run
of the in-flight tasks in the parent), and checkpoint/resume through
the policy's journal, which records each task's value only.
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
from contextlib import nullcontext
from typing import Callable, Sequence

from repro.core.resilience import (
    ResiliencePolicy,
    TaskFailure,
    TaskTimeout,
)
from repro.obs import Obs, maybe_span

#: Worker-local cross-candidate cache, created by the pool initializer
#: (one per worker process, reused across every task that worker runs).
_WORKER_EVAL_CACHE = None

#: Worker-local persistent solve caches, keyed by store URL, so a
#: worker opens (and, for JSON, parses) each store once, not once per
#: task.
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


# --------------------------------------------------------------------- #
# Task environments


class TaskEnv:
    """What a task shares with the other tasks of its map.

    The eval cache is created on first use, so maps whose tasks never
    solve (study cells, tests) never build one.
    """

    __slots__ = ("obs", "solve_cache", "_eval_cache")

    def __init__(self, obs=None, solve_cache=None, eval_cache=None):
        self.obs = obs
        self.solve_cache = solve_cache
        self._eval_cache = eval_cache

    @property
    def eval_cache(self):
        if self._eval_cache is None:
            from repro.array.organization import EvalCache

            self._eval_cache = EvalCache()
        return self._eval_cache


#: The environment of the task running now (None outside a map).
_TASK_ENV: TaskEnv | None = None


def task_env() -> TaskEnv:
    """The running task's environment (see the module docstring).

    Outside a map it is an empty one, so task functions also run when
    called directly.
    """
    return _TASK_ENV if _TASK_ENV is not None else TaskEnv()


def _init_worker() -> None:
    global _WORKER_EVAL_CACHE
    from repro.array.organization import EvalCache

    _WORKER_EVAL_CACHE = EvalCache()


def _worker_solve_cache(url: str | None):
    """This worker's SolveCache for the store at ``url`` (opened once).

    Concurrent writers stay safe on every backend: the JSON backend's
    saves are atomic merge-on-load replaces, and the sqlite backend
    serializes row upserts on the database write lock (see
    :class:`~repro.core.solvecache.SolveCache`).
    """
    if url is None:
        return None
    cache = _WORKER_SOLVE_CACHES.get(url)
    if cache is None:
        from repro.core.solvecache import SolveCache

        cache = _WORKER_SOLVE_CACHES[url] = SolveCache(url)
    return cache


def _run_task(fn, payload, stage, index, attempt, fault_plan, env):
    """One attempt of one task, with ``env`` installed for the task:
    fire any planned fault, then run ``fn`` inside a ``stage`` span."""
    global _TASK_ENV
    if fault_plan is not None:
        fault_plan.fire(stage, index, attempt)
    outer, _TASK_ENV = _TASK_ENV, env
    try:
        with maybe_span(env.obs, stage, index=index):
            return fn(payload)
    finally:
        _TASK_ENV = outer


def _pooled_task(wrapped: tuple) -> tuple:
    """Worker-side shim: run one task in the worker's environment.

    Returns ``(value, busy seconds, Obs payload or None)``; the parent
    unwraps it, so only the value reaches results and the journal.
    """
    fn, payload, stage, index, attempt, fault_plan, store_url, observed = (
        wrapped
    )
    obs = Obs() if observed else None
    env = TaskEnv(obs, _worker_solve_cache(store_url), _WORKER_EVAL_CACHE)
    start = time.perf_counter()
    value = _run_task(fn, payload, stage, index, attempt, fault_plan, env)
    busy_s = time.perf_counter() - start
    return value, busy_s, obs.export_payload() if obs is not None else None


# --------------------------------------------------------------------- #
# The engine


def parallel_map(
    fn: Callable,
    payloads: Sequence,
    jobs: int,
    *,
    obs: Obs | None = None,
    span_name: str | None = None,
    resilience: ResiliencePolicy | None = None,
    keys: Sequence[str] | None = None,
    eval_cache=None,
    solve_cache=None,
) -> list:
    """Order-preserving map of ``fn`` over ``payloads``.

    ``jobs`` (resolved by :func:`resolve_jobs`, capped at the number of
    tasks left to run) picks in-process or pooled execution; results
    always come back in payload order.  ``fn`` reads ``obs``,
    ``eval_cache`` and ``solve_cache`` -- the caller's own in-process,
    worker-local ones in a pool -- through :func:`task_env`.

    ``resilience`` (default: ``ResiliencePolicy()``, fail fast) sets
    the failure policy: ``on_error`` with bounded exponential-backoff
    retries, per-task wall-clock timeouts with cancellation (pooled
    runs only), pool rebuild + in-process re-run of in-flight tasks on
    ``BrokenProcessPool``, and -- when the policy carries a journal and
    ``keys`` names each task -- checkpointed values restored without
    re-execution.  Failed slots hold
    :class:`~repro.core.resilience.TaskFailure` records in skip/retry
    mode.

    ``obs`` traces the map: one ``<span_name>.resilient_map`` span
    around the run and one ``span_name`` span per task (recorded in the
    worker and shipped home when pooled).  It counts
    ``resilience.retries``, ``.timeouts``, ``.tasks_failed``,
    ``.pool_rebuilds`` and ``.journal_restored``, and the
    ``store.*`` family of ``solve_cache``.
    """
    return _ResilientMap(
        fn,
        list(payloads),
        jobs,
        resilience or ResiliencePolicy(),
        keys=keys,
        stage=span_name or "parallel_map",
        env=TaskEnv(obs, solve_cache, eval_cache),
    ).run()


class _ResilientMap:
    """One map execution (see :func:`parallel_map`)."""

    def __init__(self, fn, payloads, jobs, policy, *, keys, stage, env):
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
        self.env = env
        self.obs = env.obs
        self.results: list = [None] * len(payloads)
        self.busy_s = 0.0  # task time measured in the worker shims
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
        if len(todo) < len(self.payloads):
            self._count("journal_restored", len(self.payloads) - len(todo))
        return todo

    def _success(self, index: int, value) -> None:
        self.results[index] = value
        journal = self.policy.journal
        if journal is not None:
            journal.record(self.keys[index], self.stage, value)

    def _harvest(self, index: int, result: tuple) -> None:
        """Unwrap a pooled task's result: absorb its worker ``Obs``,
        count its busy time, keep its value."""
        value, busy_s, payload = result
        self.busy_s += busy_s
        if self.obs is not None:
            self.obs.absorb_worker(payload)
        self._success(index, value)

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
        solve_cache = self.env.solve_cache
        with maybe_span(
            self.obs,
            f"{self.stage}.resilient_map",
            jobs=self.jobs,
            tasks=len(self.todo),
            skipped=len(self.payloads) - len(self.todo),
        ):
            if self.jobs <= 1:
                # Held open: every solve boundary inside defers its
                # flush to this one exit.
                with solve_cache if solve_cache is not None else nullcontext():
                    for index in self.todo:
                        self._run_in_process(index, first_attempt=1)
            else:
                self._run_pooled()
                if solve_cache is not None:
                    # Pick up the records the workers wrote.
                    solve_cache.refresh()
        if solve_cache is not None:
            from repro.core.solvecache import account_store

            account_store(solve_cache, self.obs)
        return self.results

    def _run_in_process(self, index: int, first_attempt: int) -> None:
        # In-process execution cannot be preempted, so ``timeout_s`` is
        # not enforced here -- timeouts need a worker pool to cancel.
        attempt = first_attempt
        while True:
            try:
                value = _run_task(
                    self.fn,
                    self.payloads[index],
                    self.stage,
                    index,
                    attempt,
                    self.policy.fault_plan,
                    self.env,
                )
            except Exception as exc:
                if self._handle_error(index, attempt, exc):
                    attempt += 1
                    continue
                return
            self._success(index, value)
            return

    def _run_pooled(self) -> None:
        store_url = (
            self.env.solve_cache.url
            if self.env.solve_cache is not None
            else None
        )
        observed = self.obs is not None
        pending: deque = deque((i, 1) for i in self.todo)
        inflight: dict = {}  # future -> (index, attempt, submitted_at)
        pool = None
        start = time.perf_counter()
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
                        store_url,
                        observed,
                    )
                    try:
                        fut = pool.submit(_pooled_task, wrapped)
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
                        result = fut.result()
                    except BrokenExecutor:
                        broken = True
                        # The parent re-runs this task itself: a task
                        # that kills every worker it lands on must not
                        # kill pool after pool.
                        self._run_in_process(
                            index, first_attempt=attempt + 1
                        )
                    except Exception as exc:
                        if self._handle_error(index, attempt, exc):
                            pending.append((index, attempt + 1))
                    else:
                        self._harvest(index, result)
                if broken:
                    pool = self._recover_broken_pool(
                        pool, inflight, pending
                    )
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        wall_s = time.perf_counter() - start
        if self.obs is not None and wall_s > 0:
            self.obs.gauge(
                "parallel.worker_utilization",
                self.busy_s / (wall_s * self.jobs),
            )

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
                self._harvest(index, fut.result())
            else:
                pending.append((index, attempt))
        inflight.clear()
        self._count("pool_rebuilds")
        pool.shutdown(wait=False, cancel_futures=True)
        return None

    def _recover_broken_pool(self, pool, inflight: dict, pending: deque):
        """BrokenProcessPool: harvest survivors, re-run the rest here.

        Futures that completed before the crash keep their results; the
        tasks that were in flight when the pool died are re-run
        in-process (serially, charged one attempt -- one of them likely
        killed the worker, and the parent must survive running it).
        """
        self._count("pool_rebuilds")
        for fut, (index, attempt, _) in list(inflight.items()):
            if fut.done() and fut.exception() is None:
                self._harvest(index, fut.result())
            else:
                self._run_in_process(index, first_attempt=attempt + 1)
        inflight.clear()
        pool.shutdown(wait=False, cancel_futures=True)
        return None
