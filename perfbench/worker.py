"""One benchmark pass of one workload, in a fresh interpreter.

Started by ``run.py`` with the source tree on ``PYTHONPATH``; prints one
JSON line.  Modes:

* ``setup``    -- imports and set-up only (a ``setup_s`` sample);
* ``measure``  -- set-up, then ops through the public API until
  ``--seconds`` have passed (at whole rounds), then the answer checks;
* ``pass``     -- a fixed op list, sized from ``--seconds``, through the
  public API;
* ``traced``   -- the same ops replayed call by call with spans.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import golden as golden_file  # noqa: E402
from spans import Tracer  # noqa: E402

MODULES = {
    "sweep": ("wl_sweep", "Sweep"),
    "cold_cli": ("wl_cold_cli", "ColdCli"),
    "llc_study": ("wl_llc_study", "LlcStudy"),
}
MAX_PROBLEMS = 20


class _Untraced:
    """The tracer interface, recording nothing."""

    def span(self, name):
        return nullcontext([name])

    def count(self, name, n=1):
        pass


def _versions(numpy) -> dict:
    import repro
    from repro.cachedb.schema import DB_FORMAT_VERSION
    from repro.core.solvecache import CACHE_VERSION

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "model_version": CACHE_VERSION,
        "cachedb_format": DB_FORMAT_VERSION,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=MODULES)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "pass", "traced"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()
    clock = time.perf_counter

    traced = args.mode == "traced"
    tr = Tracer() if traced else _Untraced()
    module_name, class_name = MODULES[args.workload]
    t0 = clock()
    import numpy

    t1 = clock()
    wl = importlib.import_module(module_name)
    from repro.core.optimizer import NoFeasibleSolution

    t2 = clock()
    if traced and not wl.OP_PROCESSES:
        # Workloads that start a process per op time imports there.
        tr.spans += [["import.python", args.spawned_at, T_START, -1, None],
                     ["import.numpy", t0, t1, -1, None],
                     ["import.repro", t1, t2, -1, None]]
    golden = golden_file.load(args.root)
    Path(args.tmp).mkdir(parents=True, exist_ok=True)
    # The fixed op list of the pass/traced modes: about half of
    # ``--seconds`` each at the workload's nominal rate, whole rounds.
    fixed_ops = max(math.ceil(args.seconds * wl.TRACE_RATE / 2), 3)
    fixed_ops = math.ceil(fixed_ops / wl.ROUND) * wl.ROUND
    with tr.span("setup"):
        state = getattr(wl, class_name)(args.seed, args.tmp, golden, tr)
    out = {"setup_done": clock(), "versions": _versions(numpy),
           "params": wl.params(args.seed)}
    if args.mode == "setup":
        state.close()
        print(json.dumps(out))
        return 0

    latencies, digests, done_ops, problems = [], [], [], []
    failed = set()
    stream = wl.ops(args.seed)
    deadline = clock() + args.seconds
    index = 0
    while True:
        if args.mode == "measure":
            if index % wl.ROUND == 0 and clock() >= deadline:
                break
        elif index >= fixed_ops:
            break
        op = next(stream)
        tr.op = index
        answer = None
        start = clock()
        try:
            if traced:
                with tr.span("op"):
                    answer = state.replay(op, tr)
            else:
                answer = state.run(op)
        except NoFeasibleSolution as exc:
            answer = exc
        except Exception:  # the op failed; record it and go on
            failed.add(index)
            problems.append(f"op {index} {op!r}: "
                            + traceback.format_exc(limit=3))
        latencies.append(clock() - start)
        tr.op = None
        done_ops.append(op)
        if answer is not None:
            found = state.check(index, op, answer)
            if found:
                failed.add(index)
                problems += found
            if args.mode != "measure":
                digests.append("infeasible"
                               if isinstance(answer, NoFeasibleSolution)
                               else state.digest(op, answer))
        index += 1

    final = state.finish(done_ops)
    problems += final
    state.close()
    who = (resource.RUSAGE_CHILDREN if wl.OP_PROCESSES
           else resource.RUSAGE_SELF)
    out.update({
        "latencies": latencies,
        "attempted": len(done_ops),
        "failed": len(failed) + len(final),
        "problems": problems[:MAX_PROBLEMS],
        "digests": digests,
        "counts": dict(getattr(tr, "counts", {})),
        "pass_counts": state.pass_counts(),
        "ddr3_err_pct": state.ddr3_err_pct,
        "extras": state.extras(sum(latencies)),
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        "spans": tr.spans if traced else [],
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
