"""One traced ``cold_cli`` op in a fresh interpreter.

Usage: ``python3 perfbench/cli_probe.py '<request json>'`` with the
source tree on ``PYTHONPATH``.  The request names the op, the cachedb
artifact, the sqlite store and the parent's clock reading at spawn.
The probe times interpreter start and each import, replays the op
through the layer calls the CLI would make, prints exactly what the
CLI would print, and ends with one JSON line of spans and counts.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    request = json.loads(sys.argv[1])
    kind = request["op"][0]
    tr = Tracer()
    tr.spans.append(["import.python", request["spawned_at"], T_START, -1,
                     None])
    with tr.span("import.numpy"):
        import numpy  # noqa: F401
    with tr.span("import.repro"):
        import repro  # noqa: F401

        if kind in ("query", "cachedb"):
            import repro.cachedb  # noqa: F401
    with tr.span("import.cli"):
        import repro.cli  # noqa: F401

    import replay
    from specs import spec_of

    op = (kind, tuple(request["op"][1]))
    if kind == "query":
        from repro.cachedb import CacheDB

        tech, cap, assoc, node = op[1]
        with tr.span("cachedb.open"):
            db = CacheDB(request["db"])
        with tr.span("cachedb.query") as rec:
            result = db.query(cap, associativity=assoc, block_bytes=64,
                              node_nm=node, cell_tech=tech)
        if result.source == "exact":
            rec[0] = "cachedb.exact"
            tr.count("cachedb.hits")
        elif result.source == "interpolated":
            rec[0] = "cachedb.interp"
            tr.count("cachedb.interpolated")
        else:
            tr.count("cachedb.fallbacks")
        print(result.summary())
    else:
        spec, target = spec_of(op)
        solution = None
        cache = None
        if kind == "cachedb":
            from repro.cachedb import CacheDB

            with tr.span("cachedb.open"):
                db = CacheDB(request["db"])
            with tr.span("cachedb.exact"):
                solution = db.lookup_exact(spec, target)
            tr.count("cachedb.hits" if solution is not None
                     else "cachedb.misses")
        elif kind == "sqlite":
            from repro.core.solvecache import SolveCache

            with tr.span("store.open"):
                cache = SolveCache(f"sqlite:{request['store']}")
        if solution is None:
            solution = replay.solve(tr, spec, target, cache=cache)
        print(solution.summary())
    print(json.dumps({"spans": tr.spans, "counts": tr.counts}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
