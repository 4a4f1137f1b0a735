"""Precomputed design-space database with interpolated lookup.

The cachedb is the serving tier over the solver: ``build_cachedb``
precomputes the optimizer's winning design point for every cell of a
(technology x node x capacity x block x associativity) grid using the
existing parallel/resilient sweep engine, and :class:`CacheDB` answers
queries from the resulting versioned artifact -- on-grid queries by
exact hit in ~microseconds (bit-identical to a live solve), off-grid
queries by log-linear interpolation between neighboring grid points,
with ``fallback="solve"|"error"|"nearest"`` for everything the grid
cannot answer.  See ``docs/MODELING.md`` section 16.
"""

from repro._lazy import lazy_exports

#: Where each public name is defined; it is imported on first access,
#: so reading an artifact never loads the builder's solver stack.
_EXPORTS = {
    "BuildReport": "repro.cachedb.builder",
    "CacheDB": "repro.cachedb.reader",
    "CacheDBError": "repro.cachedb.reader",
    "CacheDBMiss": "repro.cachedb.reader",
    "CacheDBResult": "repro.cachedb.reader",
    "DB_FORMAT_VERSION": "repro.cachedb.schema",
    "DB_METRICS": "repro.cachedb.schema",
    "FALLBACKS": "repro.cachedb.reader",
    "GridSpec": "repro.cachedb.schema",
    "build_cachedb": "repro.cachedb.builder",
    "grid_key": "repro.cachedb.schema",
    "grid_spec_for": "repro.cachedb.schema",
    "open_cachedb": "repro.cachedb.reader",
}

__all__ = [
    "BuildReport",
    "CacheDB",
    "CacheDBError",
    "CacheDBMiss",
    "CacheDBResult",
    "DB_FORMAT_VERSION",
    "DB_METRICS",
    "FALLBACKS",
    "GridSpec",
    "build_cachedb",
    "grid_key",
    "grid_spec_for",
    "open_cachedb",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
