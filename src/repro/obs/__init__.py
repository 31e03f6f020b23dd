"""repro.obs — the instrumentation layer.

A dependency-free, near-zero-overhead-when-disabled observability
subsystem: thread-safe counters/gauges/histograms in a process-global
:class:`~repro.obs.metrics.Registry`, a span-based wall-time tracer,
JSONL export and a human-readable summary.

The estimators, partitioning searches and the VHDL front end are
instrumented against the module-level singletons here.  Everything is
**off by default**; an instrumentation point is written as::

    from repro.obs import OBS, span

    if OBS.enabled:
        OBS.inc("estimate.exectime.memo_hit")

    with span("estimate.report"):
        ...

so disabled instrumentation costs one attribute load and one branch
(counters) or one function call returning a shared no-op object
(spans).  Enable collection with :func:`enable` — the CLI does this for
``--stats`` / ``--trace-out`` — read results via :func:`snapshot`,
:func:`render_summary` (table) or :func:`write_jsonl` (machine form),
and clear state between runs with :func:`reset`.

Typical library use::

    from repro import build_system, obs

    obs.enable()
    system = build_system("fuzzy")
    system.repartition("annealing")
    print(obs.render_summary())
    obs.write_jsonl("trace.jsonl")
    obs.reset()
"""

from __future__ import annotations

from repro.obs.export import dumps_jsonl, jsonl_lines, read_jsonl, write_jsonl
from repro.obs.exposition import prometheus_labeled_text, prometheus_text
from repro.obs.metrics import Counter, Gauge, Histogram, Registry
from repro.obs.report import render_summary
from repro.obs.tracing import NOOP_SPAN, NoopSpan, Span, Tracer, new_trace_id

#: The process-global registry all built-in instrumentation reports to.
REGISTRY = Registry(enabled=False)

#: Alias used at instrumentation points (``if OBS.enabled: OBS.inc(...)``).
OBS = REGISTRY

#: The process-global tracer; gated by ``REGISTRY.enabled``.
TRACER = Tracer(registry=REGISTRY)


def enabled() -> bool:
    """Is collection currently on?"""
    return REGISTRY.enabled


def enable() -> None:
    """Turn metric and span collection on (process-wide)."""
    REGISTRY.enabled = True


def disable() -> None:
    """Turn collection off; already-collected data is kept."""
    REGISTRY.enabled = False


def reset() -> None:
    """Drop all collected metrics and spans (the flag is unchanged)."""
    REGISTRY.reset()
    TRACER.reset()


def span(name: str, **attributes):
    """Open a wall-time span on the global tracer (no-op when disabled)."""
    return TRACER.span(name, **attributes)


def add_event(name: str, **attributes) -> None:
    """Attach an event to the innermost open span, if any."""
    TRACER.add_event(name, **attributes)


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    return REGISTRY.histogram(name)


def snapshot() -> dict:
    """Plain-data copy of every collected metric."""
    return REGISTRY.snapshot()


# -- trace context ------------------------------------------------------


def trace_id() -> str:
    """The calling thread's current trace id (minted lazily)."""
    return TRACER.trace_id()


def set_trace_id(tid) -> None:
    """Install (or with ``None`` clear) this thread's trace id."""
    TRACER.set_trace_id(tid)


# -- cross-process capture/merge ---------------------------------------


def capture() -> dict:
    """Serialize this process's collected telemetry for another process.

    Worker processes call this after evaluating a chunk; the coordinator
    feeds the result to :func:`absorb`.  The payload is plain JSON-able
    data: a raw registry dump (exact histogram buckets, not quantile
    summaries) plus every finished span as a dict.
    """
    return {
        "registry": REGISTRY.dump(),
        "spans": TRACER.export_spans(),
        "dropped": TRACER.dropped,
    }


def absorb(payload: dict, parent_span_id=None, attributes=None) -> None:
    """Merge a :func:`capture` payload into this process's telemetry.

    Counters sum, gauges last-write-wins, histogram buckets add; spans
    are grafted in with remapped ids, orphan roots attached under
    ``parent_span_id``, and ``attributes`` stamped on each.
    """
    REGISTRY.merge(payload.get("registry", {}))
    TRACER.absorb_spans(
        payload.get("spans", []),
        parent_id=parent_span_id,
        attributes=attributes,
    )
    TRACER.dropped += int(payload.get("dropped", 0))


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "NOOP_SPAN",
    "NoopSpan",
    "OBS",
    "REGISTRY",
    "Registry",
    "Span",
    "TRACER",
    "Tracer",
    "absorb",
    "add_event",
    "capture",
    "counter",
    "disable",
    "dumps_jsonl",
    "enable",
    "enabled",
    "gauge",
    "histogram",
    "jsonl_lines",
    "new_trace_id",
    "prometheus_labeled_text",
    "prometheus_text",
    "read_jsonl",
    "render_summary",
    "reset",
    "set_trace_id",
    "snapshot",
    "span",
    "trace_id",
    "write_jsonl",
]
