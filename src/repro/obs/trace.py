"""Nested tracing spans for the solve pipeline.

A :class:`Tracer` records wall-clock spans as the pipeline runs:
``span("solve")`` > ``span("prefilter")`` > ``span("build")`` and so on,
each with a name, a duration, and free-form attributes (candidate
counts, spec sizes, pids).  Tracing is pure observation -- it reads the
clock around existing work and never touches a solved number.

Two export formats:

* :meth:`Tracer.to_dicts` / :meth:`Tracer.write_json` -- a flat list of
  span dicts with explicit ``id``/``parent`` links, easy to assert on in
  tests and to post-process;
* :meth:`Tracer.chrome_trace` / :meth:`Tracer.write_chrome` -- the
  Chrome trace-event format (``chrome://tracing``, Perfetto), one
  complete ``"ph": "X"`` event per span, nesting inferred from time
  containment per ``pid``/``tid`` track.

Worker processes cannot share a tracer object, so they record spans into
their *own* tracer and ship :meth:`Tracer.export_payload` home inside
the ``Obs`` payload each worker task returns.  The parent
calls :meth:`Tracer.absorb_payload`, which re-bases the worker's span
timestamps onto the parent's clock (via the wall-clock epochs both sides
record) while keeping the worker's pid, so the merged trace shows each
process on its own track at the correct offset.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    """One completed (or still-open) span of work."""

    name: str
    start_s: float  #: seconds since the tracer's epoch
    duration_s: float = 0.0  #: filled when the span closes
    pid: int = 0
    tid: int = 1
    id: int = 0
    parent: int | None = None  #: id of the enclosing span, if any
    depth: int = 0  #: nesting depth (0 = top level)
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "pid": self.pid,
            "tid": self.tid,
            "id": self.id,
            "parent": self.parent,
            "depth": self.depth,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Records nested spans against one process-local clock.

    The span clock is ``time.perf_counter`` (monotonic, high
    resolution); ``epoch_wall`` (``time.time`` at construction) anchors
    it to wall-clock time so traces from different processes can be
    stitched onto one timeline.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.epoch_wall = time.time()
        self._epoch = time.perf_counter()
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0

    def __len__(self) -> int:
        return len(self.spans)

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a nested span; yields the mutable :class:`Span` record.

        The record's ``duration_s`` is finalized when the context exits
        (exception or not), and attributes may be added to
        ``span.attrs`` while it is open.
        """
        parent = self._stack[-1] if self._stack else None
        record = Span(
            name=name,
            start_s=time.perf_counter() - self._epoch,
            pid=self.pid,
            id=self._next_id,
            parent=parent.id if parent is not None else None,
            depth=len(self._stack),
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._stack.append(record)
        try:
            yield record
        finally:
            record.duration_s = (
                time.perf_counter() - self._epoch - record.start_s
            )
            self._stack.pop()
            self.spans.append(record)

    # ------------------------------------------------------------------ #
    # Worker stitching

    def export_payload(self) -> dict:
        """Picklable snapshot of this tracer for shipping to a parent."""
        return {
            "pid": self.pid,
            "epoch_wall": self.epoch_wall,
            "spans": [s.to_dict() for s in self.spans],
        }

    def absorb_payload(self, payload: dict | None) -> None:
        """Stitch a worker tracer's payload into this trace.

        Worker span ids are re-numbered into this tracer's id space
        (preserving their parent links), timestamps are shifted by the
        difference of the wall-clock epochs so the worker's work appears
        at the right offset on the parent timeline, and the worker's pid
        is kept so each process renders as its own track.
        """
        if not payload:
            return
        offset = payload.get("epoch_wall", self.epoch_wall) - self.epoch_wall
        id_map: dict[int, int] = {}
        for d in payload.get("spans", ()):
            id_map[d["id"]] = self._next_id
            self._next_id += 1
        for d in payload.get("spans", ()):
            self.spans.append(
                Span(
                    name=d["name"],
                    start_s=d["start_s"] + offset,
                    duration_s=d["duration_s"],
                    pid=d.get("pid", payload.get("pid", 0)),
                    tid=d.get("tid", 1),
                    id=id_map[d["id"]],
                    parent=id_map.get(d["parent"]),
                    depth=d.get("depth", 0),
                    attrs=dict(d.get("attrs") or {}),
                )
            )

    # ------------------------------------------------------------------ #
    # Export

    def to_dicts(self) -> list[dict]:
        """All recorded spans as plain dicts, sorted by start time."""
        return [s.to_dict() for s in sorted(self.spans, key=_sort_key)]

    def chrome_trace(self) -> dict:
        """The trace in Chrome trace-event ("Trace Event") format.

        Loadable directly in ``chrome://tracing`` or Perfetto: one
        complete event (``"ph": "X"``) per span with microsecond
        timestamps, grouped into per-process tracks by pid.
        """
        events = [
            {
                "name": s.name,
                "cat": "repro",
                "ph": "X",
                "ts": s.start_s * 1e6,
                "dur": s.duration_s * 1e6,
                "pid": s.pid,
                "tid": s.tid,
                "args": dict(s.attrs),
            }
            for s in sorted(self.spans, key=_sort_key)
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "tool": "repro (CACTI-D reproduction)",
                "root_pid": self.pid,
                "epoch_wall": self.epoch_wall,
            },
        }

    def write_chrome(self, path: str | os.PathLike) -> None:
        """Write the Chrome trace-event JSON file."""
        Path(path).write_text(json.dumps(self.chrome_trace(), indent=1))

    def write_json(self, path: str | os.PathLike) -> None:
        """Write the flat span-dict list as JSON."""
        Path(path).write_text(json.dumps(self.to_dicts(), indent=1))


def _sort_key(span: Span) -> tuple:
    # Start-time order with depth as tie-break: a parent sorts before a
    # child that starts on the same clock reading.
    return (span.start_s, span.depth, span.id)
