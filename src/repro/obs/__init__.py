"""repro.obs: zero-dependency observability for the solve pipeline.

One :class:`Obs` object bundles a :class:`~repro.obs.trace.Tracer`
(nested wall-time spans, exportable as JSON and Chrome trace-event
files) with a :class:`~repro.obs.metrics.MetricsRegistry` (named
counters / gauges / histograms with a JSON ``snapshot()``).  Every
pipeline entry point -- ``optimize``, ``solve``, ``solve_batch``,
``solve_main_memory``, ``run_study``, ``sensitivity.sweep``, and the
CLI via ``--trace`` / ``--metrics`` -- accepts an optional ``obs``
argument; ``None`` (the default) keeps every hot path free of clock
reads.

The determinism contract is absolute: observability reads clocks and
counts events around existing work, and never changes a solved number.
The golden-equivalence suite asserts bit-identical metrics with tracing
on and off at every job count.

The metrics registry is the pipeline's only ledger: every event is
counted once, here.  :class:`~repro.core.optimizer.SweepStats` (the
CLI's ``--stats`` report) is a read-only view over it.

Pooled tasks of the fan-out engine (:mod:`repro.core.parallel`) record
spans and metrics into a worker ``Obs``, and the engine's worker shim
ships its ``export_payload()`` home next to the task's value (tasks
run in-process record into the caller's ``Obs`` directly); the
parent's :meth:`Obs.absorb_worker` stitches the spans into its
trace with the worker's pid at the correct time offset, adds the
worker's counters under their own names, and files its histograms
under a ``worker.`` prefix so the parent's ``phase.*`` timers stay
wall-clock true.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Obs",
    "Span",
    "Tracer",
    "maybe_span",
    "phase",
]


class Obs:
    """A tracer and a metrics registry, threaded through one run."""

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # Thin delegates so call sites stay one line.

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    def inc(self, name: str, n: int | float = 1) -> None:
        self.metrics.counter(name).inc(n)

    def observe(self, name: str, value: float) -> None:
        self.metrics.histogram(name).observe(value)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)

    # ------------------------------------------------------------------ #
    # Worker shipping (see module docstring)

    def export_payload(self) -> dict:
        """Picklable trace + metrics snapshot for shipping to a parent."""
        return {
            "trace": self.tracer.export_payload(),
            "metrics": self.metrics.snapshot(),
        }

    def absorb_worker(self, payload: dict | None) -> None:
        """Stitch a worker's ``export_payload()`` into this Obs.

        Counters and gauges keep their names (work counts add up the
        same whoever did the work).  Histograms land under a
        ``worker.`` prefix -- once: a mid-level worker's already
        prefixed ones forward unchanged -- because concurrent workers'
        phase times sum to more than the parent's wall clock.  Each
        payload counts one ``workers.absorbed``.
        """
        if not payload:
            return
        self.tracer.absorb_payload(payload.get("trace"))
        metrics = payload.get("metrics") or {}
        self.metrics.absorb({
            **metrics,
            "histograms": {
                name if name.startswith("worker.") else f"worker.{name}": h
                for name, h in (metrics.get("histograms") or {}).items()
            },
        })
        self.inc("workers.absorbed")


@contextmanager
def maybe_span(obs: Obs | None, name: str, **attrs):
    """A tracer span when ``obs`` is given; a free no-op otherwise."""
    if obs is None:
        yield None
    else:
        with obs.span(name, **attrs) as span:
            yield span


@contextmanager
def phase(name: str, obs: Obs | None = None, **attrs):
    """Time one pipeline phase: a tracer span plus a ``phase.<name>_s``
    latency histogram, from one clock reading.

    With no ``obs`` the clock is never read.
    """
    if obs is None:
        yield None
        return
    try:
        with obs.span(name, **attrs) as span:
            yield span
    finally:
        # The span's closing clock read is the histogram's sample too.
        obs.observe(f"phase.{name}_s", span.duration_s)
