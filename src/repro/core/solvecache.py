"""Persistent solve-record cache over a pluggable backend store.

Design-space exploration workloads re-solve the same arrays over and
over -- across processes, sweeps, and sessions.  In the spirit of the
Accelergy CACTI wrapper's records file, :class:`SolveCache` maps a
stable hash of ``(ArraySpec, OptimizationTarget, node)`` to the winning
:class:`~repro.array.organization.ArrayMetrics`, so a repeated query
costs a dictionary (or indexed-row) lookup instead of a sweep.

Persistence is delegated to a :class:`~repro.store.KVStore` backend:

* a plain path (``"solves.json"``) keeps the original single-JSON-file
  format, bit-compatible with every cache file written before the
  store refactor;
* a ``sqlite:`` URL (``"sqlite:solves.db?max_records=10000"``) opens a
  WAL-mode sqlite store -- bounded record count with LRU eviction,
  O(dirty-records) flushes, safe under heavy concurrent writers;
* an already-open :class:`~repro.store.KVStore` is used as-is.

Round-trips are bit-identical on every backend: records travel as JSON,
Python's ``json`` emits the shortest ``repr`` of each float (which
parses back to the exact same IEEE-754 value), and the regression tests
assert field-for-field equality.

Records are version-stamped.  ``CACHE_VERSION`` must be bumped whenever
the model changes numbers (any change to the circuit or array models).
*Known-older* records are never served (the JSON backend rewrites the
file at the current version on flush; the sqlite backend keeps rows
per-version until ``gc``).  An *unrecognized* version -- most likely
written by a newer build -- is never served from and never clobbered
(the JSON backend redirects writes to a version-suffixed sibling; the
sqlite backend stores versions side by side).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import fields

from repro.array.organization import ArrayMetrics, ArraySpec, OrgParams
from repro.core.config import OptimizationTarget
from repro.store import KVStore, open_store
from repro.tech.cells import CellTech

#: Bump on any model change that alters solved numbers, or any change
#: to the key scheme (v2: numeric key fields are normalized to float;
#: v3: the technology axis is registry-backed -- cell technologies are
#: identified by registry name in keys and records, and new
#: technologies such as stt-ram may appear).  Old v2 cache files are
#: *ignored*, never corrupted: a version mismatch loads as an empty
#: record set and the next flush rewrites the file at v3.
CACHE_VERSION = "repro-solve-cache-v3"

#: Versions this build recognizes as its own ancestors.  Files stamped
#: with one of these are safe to ignore-and-rewrite (their key scheme
#: or numbers are superseded).  Anything else that still parses as a
#: cache file is treated as foreign -- likely a newer build's -- and is
#: preserved, never overwritten.
_OLDER_VERSIONS = ("repro-solve-cache-v1", "repro-solve-cache-v2")

#: ArrayMetrics scalar fields (everything except the nested spec/org).
_METRIC_FIELDS = tuple(
    f.name for f in fields(ArrayMetrics) if f.name not in ("spec", "org")
)

#: Field names of the flat dataclasses a key or record spells out.
#: Every field is a scalar, so reading them is what ``asdict`` returns,
#: without its recursive deep copy.
_SPEC_FIELDS = tuple(f.name for f in fields(ArraySpec))
_ORG_FIELDS = tuple(f.name for f in fields(OrgParams))
_TARGET_FIELDS = tuple(f.name for f in fields(OptimizationTarget))


def _flat_dict(obj, names: tuple[str, ...]) -> dict:
    return {name: getattr(obj, name) for name in names}


def spec_to_dict(spec: ArraySpec) -> dict:
    d = _flat_dict(spec, _SPEC_FIELDS)
    d["cell_tech"] = spec.cell_tech.value
    return d


def spec_from_dict(d: dict) -> ArraySpec:
    d = dict(d)
    d["cell_tech"] = CellTech(d["cell_tech"])
    return ArraySpec(**d)


def metrics_to_dict(metrics: ArrayMetrics) -> dict:
    d = _flat_dict(metrics, _METRIC_FIELDS)
    d["spec"] = spec_to_dict(metrics.spec)
    d["org"] = _flat_dict(metrics.org, _ORG_FIELDS)
    return d


def metrics_from_dict(d: dict) -> ArrayMetrics:
    d = dict(d)
    spec = spec_from_dict(d.pop("spec"))
    org = OrgParams(**d.pop("org"))
    return ArrayMetrics(spec=spec, org=org, **d)


def _normalize_numbers(value):
    """Coerce every numeric leaf to float so equal values hash equally.

    ``json.dumps`` encodes ``32`` and ``32.0`` differently, so without
    normalization the same physical solve (``node_nm=32`` vs ``32.0``)
    would hash to two keys, silently missing the cache and duplicating
    records.  Bools are ints in Python but identity-relevant, so they
    pass through untouched.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, dict):
        return {k: _normalize_numbers(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize_numbers(v) for v in value]
    return value


def solve_key(
    spec: ArraySpec, target: OptimizationTarget, node_nm: float
) -> str:
    """Stable content hash of one solve request."""
    payload = _normalize_numbers({
        "version": CACHE_VERSION,
        "node_nm": node_nm,
        "spec": spec_to_dict(spec),
        "target": _flat_dict(target, _TARGET_FIELDS),
    })
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _record_shape_ok(record: dict) -> bool:
    """Structural screen: a solve record must carry its spec and org."""
    return "spec" in record and "org" in record


def open_solve_store(spec: str | os.PathLike, **options) -> KVStore:
    """Open a solve-record store (any backend) at the solve-cache
    version, with solve-record screening installed."""
    return open_store(
        spec,
        version=CACHE_VERSION,
        older_versions=_OLDER_VERSIONS,
        validate=_record_shape_ok,
        **options,
    )


class SolveCache:
    """Solve-keyed facade over a persistent :class:`~repro.store.KVStore`.

    Opt-in: pass a path or store URL to
    :class:`~repro.core.cacti.CactiD` via ``cache_path`` or to the CLI
    via ``--cache``.  Unreadable, corrupt, or version-mismatched
    records are treated as misses, never as errors.

    Safe to share one store across processes (the batch-solve engine
    does): the JSON backend merges concurrently-written records through
    atomic whole-file replaces; the sqlite backend serializes row
    upserts on the database's own write lock.  A killed process cannot
    corrupt the records, and two concurrent writers cannot truncate
    each other's entries.

    Writes are batched: :meth:`put` only stages the record, and
    :meth:`flush` performs the backend save.  The solve pipeline
    flushes at solve and batch boundaries, so a thousand-record sweep
    costs O(1) store writes instead of O(n^2) disk I/O.  Using the
    cache as a context manager defers flushes until the ``with`` block
    exits::

        with cache:            # flushes once on exit, however many puts
            for spec in specs:
                ...
                cache.put(...)
                cache.flush()  # deferred: records only a pending flush
    """

    def __init__(self, store: str | os.PathLike | KVStore):
        if isinstance(store, KVStore):
            self.store = store
        else:
            self.store = open_solve_store(store)
        self.hits = 0
        self.misses = 0
        #: Event counts already drained to an observability sink (see
        #: :meth:`drain_events`).
        self._drained: dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Store delegation

    @property
    def path(self):
        """Primary on-disk location of the backing store."""
        return self.store.path

    @property
    def url(self) -> str:
        """Round-trippable store spec: ``SolveCache(cache.url)`` in any
        process opens the same store with the same backend options."""
        return self.store.url

    def __len__(self) -> int:
        return len(self.store)

    @property
    def corrupt_records(self) -> int:
        """Distinct corrupt/truncated records dropped so far."""
        return self.store.corrupt_records

    def flush(self) -> None:
        """Write pending records to the store (no-op when unchanged).

        Inside a ``with cache:`` block the flush is deferred to the
        block exit, so nested solve/batch boundaries collapse to one
        store write per batch.
        """
        self.store.flush()

    def refresh(self) -> None:
        """Pick up records another process has written since we loaded."""
        self.store.refresh()

    def __enter__(self) -> "SolveCache":
        self.store.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.store.__exit__(exc_type, exc, tb)

    def close(self) -> None:
        self.store.close()

    # ------------------------------------------------------------------ #
    # Solve-keyed access

    def get(
        self,
        spec: ArraySpec,
        target: OptimizationTarget,
        node_nm: float,
        *,
        key: str | None = None,
    ) -> ArrayMetrics | None:
        """The cached solve of this request, or None on a miss.

        ``key`` is the request's :func:`solve_key` when the caller has
        it already (a miss is followed by a :meth:`put` of the same
        request), so it is hashed once.
        """
        if key is None:
            key = solve_key(spec, target, node_nm)
        record = self.store.get(key)
        if record is None:
            self.misses += 1
            return None
        try:
            metrics = metrics_from_dict(record)
        except (KeyError, TypeError, ValueError):
            # A hand-edited or truncated record: a miss, and tombstoned
            # so it is never re-parsed or re-persisted (the next flush
            # purges it from disk too).
            self.store.tombstone(key)
            self.misses += 1
            return None
        self.hits += 1
        return metrics

    def put(
        self,
        spec: ArraySpec,
        target: OptimizationTarget,
        node_nm: float,
        metrics: ArrayMetrics,
        *,
        key: str | None = None,
    ) -> None:
        if key is None:
            key = solve_key(spec, target, node_nm)
        self.store.put(key, metrics_to_dict(metrics))

    # ------------------------------------------------------------------ #
    # Observability

    def stats(self) -> dict:
        """Facade hit/miss counters plus the backend's ``store.*`` stats."""
        return {"hits": self.hits, "misses": self.misses,
                **self.store.stats()}

    def drain_events(self) -> tuple[dict[str, int], dict[str, int]]:
        """Event-count deltas since the last drain, plus point-in-time
        gauges.

        Counters are cumulative for the cache's lifetime; observability
        sinks (worker-local ``Obs`` registries that ship home and merge
        by addition) need per-interval increments instead.  Returns
        ``(deltas, gauges)`` where ``deltas`` covers hits / misses /
        evictions / flush_writes / corrupt_records and ``gauges``
        covers records / bytes_on_disk.
        """
        store_stats = self.store.stats()
        current = {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": store_stats["evictions"],
            "flush_writes": store_stats["flush_writes"],
            "corrupt_records": store_stats["corrupt_records"],
        }
        deltas = {
            name: value - self._drained.get(name, 0)
            for name, value in current.items()
        }
        self._drained = current
        gauges = {
            "records": store_stats["records"],
            "bytes_on_disk": store_stats["bytes_on_disk"],
        }
        return deltas, gauges


def account_store(solve_cache, obs) -> None:
    """Drain a solve cache's backend events into the run's ``obs``.

    Emits the ``store.*`` metric family: counters for hits / misses /
    evictions / flush_writes / corrupt_records (the hits/misses pair
    yields a derived ``store.hit_rate`` in snapshots) and gauges for
    records / bytes_on_disk.  Safe to call at every solve boundary:
    counts are drained as deltas, never double-counted.
    """
    if solve_cache is None or obs is None:
        return
    deltas, gauges = solve_cache.drain_events()
    for name, delta in deltas.items():
        counter = obs.metrics.counter(f"store.{name}")
        if delta:
            counter.inc(delta)
    for name, value in gauges.items():
        obs.gauge(f"store.{name}", value)
