"""In-memory span recorder for the traced benchmark run.

Spans are recorded only from the benchmark's own files, around the
calls it makes into each layer of ``repro``; nothing inside the
package is instrumented.  A span is ``[name, start_s, end_s, parent,
op]`` where ``parent`` is the index of the enclosing span (-1 for a
root) and ``op`` the id of the benchmark op it belongs to.  All times
come from ``time.perf_counter``, which on Linux is the system-wide
monotonic clock, so spans recorded in a child process nest correctly
under the parent's spans.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    """Spans and exact counts recorded at layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time one call into a layer; yields the span record, whose
        name (``rec[0]``) the caller may refine after the call."""
        rec = [name, _clock(), 0.0,
               self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = _clock()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def adopt(self, spans: list[list]) -> None:
        """Graft spans recorded in a child process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, start, end, child_parent, _op in spans:
            self.spans.append([
                name, start, end,
                parent if child_parent < 0 else base + child_parent,
                self.op,
            ])


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _name, start, end, _parent, _op in spans]
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, inclusive and self seconds."""
    table: dict[str, dict] = {}
    for (name, start, end, _parent, _op), own in zip(
        spans, self_times(spans)
    ):
        row = table.setdefault(name, {"calls": 0, "incl_s": 0.0,
                                      "self_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += end - start
        row["self_s"] += own
    return table


def write_chrome(path, spans: list[list]) -> None:
    """Write the spans as Chrome trace-event JSON (complete events)."""
    if not spans:
        return
    t0 = min(start for _name, start, _end, _parent, _op in spans)
    events = [
        {
            "name": name,
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": (start - t0) * 1e6,
            "dur": (end - start) * 1e6,
            "args": {
                "op": op,
                "parent": spans[parent][0] if parent >= 0 else None,
            },
        }
        for name, start, end, parent, op in spans
    ]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
