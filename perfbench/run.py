#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: a few set-up-only passes
give the ``setup_s`` median, then one pass runs the seeded ops through
the public API for ``--seconds`` and checks every answer.  ``--trace 1``
gives the per-layer metrics: a fixed, seed-determined list of ops runs
once through the public API and once replayed call by call with spans
(each pass in a fresh interpreter); the answers must be identical, the
counts must repeat those of earlier runs of the seed, and the spans are
written as Chrome trace-event JSON under ``.perfbench/traces``.

Every run appends a record with its manifest to
``.perfbench/history.jsonl``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The benchmark needs the source tree (``src/repro``) and the golden file
(``tests/data/golden_triad.json``) beside it and exits with code 2
without a result when they are missing.
"""

from __future__ import annotations

import argparse
import compileall
import datetime
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import catalog
import golden
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKLOADS = ("sweep", "cold_cli", "llc_study")
SETUP_RUNS = 3
#: A run gives up, without a result, after this many seconds.
BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _spawn_worker(workload, mode, seed, deadline, tmp, seconds=0.0):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spawned_at = time.perf_counter()
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--mode", mode, "--seed", str(seed), "--seconds", str(seconds),
            "--tmp", str(tmp), "--root", str(ROOT),
            "--spawned-at", repr(spawned_at)]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("time budget exhausted before the " + mode)
    # In its own process group, so a timeout also stops the CLI
    # processes the worker may have running.
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{mode} worker exceeded the time budget") \
                from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                         + stderr[-3000:])
    result = json.loads(stdout.strip().splitlines()[-1])
    result["spawned_at"] = spawned_at
    return result


def _high_percentile(values):
    """p90, or the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    index = min(math.ceil(0.9 * n) - 1, n - 11)
    index = max(index, 0) if n > 10 else n - 1
    return ordered[index], 100.0 * (index + 1) / n


def _source_hash() -> str:
    digest = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git() -> dict:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return {"sha": None, "dirty": None}

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip()

    return {"sha": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain",
                              "--untracked-files=no"))}


def _cpu() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _manifest(worker: dict) -> dict:
    return {"git": _git(), "source_sha256": _source_hash(),
            "nproc": os.cpu_count(), "cpu": _cpu(),
            "platform": platform.platform(), **worker["versions"],
            "inputs": worker["params"]}


def _history_counts(key: dict):
    """Counts of the latest earlier traced run with the same key."""
    path = STATE / "history.jsonl"
    if not path.exists():
        return None
    found = None
    for line in path.read_text().splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if record.get("key") == key and record.get("counts"):
            found = record["counts"]
    return found


def _append_history(record: dict) -> None:
    STATE.mkdir(exist_ok=True)
    with open(STATE / "history.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def measure(workload, seed, seconds, deadline, tmp):
    setups = []
    for _ in range(SETUP_RUNS - 1):
        w = _spawn_worker(workload, "setup", seed, deadline, tmp / "setup")
        setups.append(w["setup_done"] - w["spawned_at"])
        shutil.rmtree(tmp / "setup", ignore_errors=True)
    w = _spawn_worker(workload, "measure", seed, deadline, tmp / "measure",
                      seconds=seconds)
    setups.append(w["setup_done"] - w["spawned_at"])
    lat = w["latencies"]
    if not lat or w["ddr3_err_pct"] is None:
        raise BenchError("no op or no DDR3 validation completed")
    high, pct = _high_percentile(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": high * 1e3,
        "peak_rss_mb": w["peak_rss_kb"] / 1024.0,
        "ddr3_err_pct": w["ddr3_err_pct"],
    }
    notes = {
        "fail_frac": (w["failed"] / max(w["attempted"], 1), "1"),
        "op_p90_percentile": (pct, "pct"),
        "ops": (len(lat), "count"),
        "setup_samples_s": (setups, "s"),
        **{k: tuple(v) for k, v in w["extras"].items()},
    }
    return w, metrics, notes


def trace(workload, seed, seconds, deadline, tmp, key):
    plain = _spawn_worker(workload, "pass", seed, deadline, tmp / "pass",
                          seconds=seconds)
    w = _spawn_worker(workload, "traced", seed, deadline, tmp / "traced",
                      seconds=seconds)
    problems = []
    mismatched = [i for i, (a, b) in enumerate(zip(plain["digests"],
                                                   w["digests"])) if a != b]
    if len(plain["digests"]) != len(w["digests"]) or mismatched:
        problems.append(f"traced answers differ from untraced at ops "
                        f"{mismatched[:10]}")
    counts = {**w["pass_counts"], **w["counts"]}
    for name, value in plain["pass_counts"].items():
        if counts.get(name) != value:
            problems.append(f"count {name}: traced {counts.get(name)}, "
                            f"untraced {value}")
    counts = {name: counts.get(name, 0) for name in catalog.COUNTS}
    earlier = _history_counts(key)
    if earlier is not None and earlier != counts:
        changed = sorted(k for k in counts if earlier.get(k) != counts[k])
        problems.append(f"counts differ from an earlier run of this seed: "
                        f"{changed}")

    recorded = w["spans"]
    own = spans.self_times(recorded)
    traced_total = bench_self = 0.0
    layer_self_s: dict = {}  # self time inside ops, per span name
    for (name, start, end, _parent, op), t in zip(recorded, own):
        if name == "op":
            traced_total += end - start
            bench_self += t
        elif op is not None:
            layer_self_s[name] = layer_self_s.get(name, 0.0) + t
    layer_self = sum(layer_self_s.values())
    if abs(layer_self + bench_self - traced_total) > 1e-6 * traced_total:
        problems.append("span self times do not add up to the op time")
    untraced_total = sum(plain["latencies"])
    overhead = traced_total / untraced_total - 1.0
    summary = spans.summarize(recorded)
    values = catalog.layer_metrics(summary, counts, overhead,
                                   layer_self / traced_total)
    (STATE / "traces").mkdir(parents=True, exist_ok=True)
    trace_path = STATE / "traces" / f"{workload}-seed{seed}.json"
    spans.write_chrome(trace_path, recorded)
    # Each check that failed outside any one op counts as one failure.
    w["failed"] += plain["failed"] + len(problems)
    w["problems"] += plain["problems"] + problems
    notes = {
        "ops": (w["attempted"], "count"),
        "traced_op_s": (traced_total, "s"),
        "untraced_op_s": (untraced_total, "s"),
        "benchmark_self_s": (bench_self, "s"),
        **{f"self_s.{name}": (t, "s")
           for name, t in sorted(layer_self_s.items(),
                                 key=lambda item: -item[1])},
        "trace_file": (str(trace_path.relative_to(ROOT)), ""),
    }
    return w, values, notes, counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + BUDGET_S

    missing = [p for p in (SRC / "repro" / "__init__.py",
                           ROOT / golden.GOLDEN_PATH)
               if not p.exists()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    with open(HERE.parent / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    names = {"end_to_end": set(catalog.END_TO_END),
             "per_layer": set(catalog.PER_LAYER)}
    for section, expected in names.items():
        if {m["name"] for m in declared[section]} != expected:
            print(f"error: BENCHMARK.json {section} and perfbench/catalog.py"
                  " disagree", file=sys.stderr)
            return 2
    units = {m["name"]: m["unit"]
             for section in names for m in declared[section]}

    # Compile once up front so no timed pass pays for bytecode.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    tmp = STATE / "tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    key = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "source_sha256": _source_hash()}
    try:
        if args.trace:
            w, values, notes, counts = trace(args.workload, args.seed,
                                             args.seconds, deadline, tmp, key)
        else:
            w, values, notes = measure(args.workload, args.seed,
                                       args.seconds, deadline, tmp)
            counts = {}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = {name: (value, units[name]) for name, value in values.items()}
    correct = not w["problems"] and w["failed"] == 0
    _append_history({
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "key": key, "trace": args.trace, "manifest": _manifest(w),
        "metrics": {k: v[0] for k, v in metrics.items()},
        "notes": {k: v[0] for k, v in notes.items()},
        "counts": counts, "correct": correct, "attempted": w["attempted"],
        "failed": w["failed"], "problems": w["problems"],
    })
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  ({w['attempted']} ops)")
    for name, (value, unit) in {**metrics, **notes}.items():
        print(f"  {name:<30} {value} {unit}")
    for problem in w["problems"]:
        print(f"  problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": w["attempted"],
        "failed": w["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
