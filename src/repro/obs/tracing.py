"""Span tracing: nested wall-time measurement with trace-context.

A *span* is one timed region of work — ``with span("estimate.exectime")``
— with a name, attributes, optional point-in-time *events*, and a parent
(the span that was open on the same thread when it started).  The
finished spans form a forest that reconstructs where a run's wall time
went: ``cli.partition`` → ``system.build`` → ``vhdl.parse`` …

Every span also carries a **trace id** — the identifier of the logical
operation it belongs to, even when that operation crosses thread and
process boundaries.  The serving layer accepts (or mints) one per HTTP
request via the ``X-Slif-Trace-Id`` header and installs it with
:meth:`Tracer.set_trace_id`; the exploration engine forwards it to its
workers so a worker-side chunk span can be joined back to the request
that caused it.  Threads without an explicit trace id share the
tracer's per-process default (one id per CLI command).

Design points:

* **Disabled is free.**  :meth:`Tracer.span` returns a shared no-op
  span when the registry is disabled; entering/exiting it does nothing
  and allocates nothing.
* **Thread safety.**  The open-span stack is thread-local (so parenting
  is correct under concurrent use); the finished-span list is guarded
  by a lock.
* **Reset really resets.**  :meth:`Tracer.reset` bumps a generation
  counter that invalidates every thread's open-span stack: a span
  opened before the reset can neither become the parent of spans opened
  after it nor sneak into the freshly-cleared finished list when it
  eventually exits.
* **Bounded memory.**  At most ``max_spans`` finished spans are kept;
  beyond that, spans are counted in ``dropped`` instead of stored (the
  counters keep working regardless).
* **Mergeable.**  :meth:`Tracer.absorb_spans` grafts exported span
  dicts from another process into this tracer — span ids are remapped
  into this tracer's id space (intra-batch parent links preserved),
  orphan roots are attached under a caller-supplied anchor span, and
  extra attributes (e.g. ``worker_pid``) can be stamped on.

Durations come from :func:`time.perf_counter`; start timestamps are
also captured with :func:`time.time` so exported traces can be aligned
with external logs.
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Any, Dict, Iterable, List, Optional


def new_trace_id() -> str:
    """A fresh 16-hex-char trace identifier."""
    return uuid.uuid4().hex[:16]


class NoopSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    duration: float = 0.0
    name: str = ""
    trace_id: Optional[str] = None

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set_attribute(self, key: str, value: Any) -> None:
        return None

    def add_event(self, name: str, **attributes: Any) -> None:
        return None


NOOP_SPAN = NoopSpan()


class Span:
    """One timed region; created via :meth:`Tracer.span`."""

    __slots__ = (
        "tracer", "name", "attributes", "events",
        "span_id", "parent_id", "trace_id", "gen",
        "start_wall", "_start", "duration",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.events: List[Dict[str, Any]] = []
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self.trace_id: Optional[str] = None
        self.gen = 0
        self.start_wall = 0.0
        self._start = 0.0
        self.duration = 0.0

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def add_event(self, name: str, **attributes: Any) -> None:
        """Record a point-in-time event inside this span."""
        self.events.append(
            {
                "name": name,
                "offset": time.perf_counter() - self._start,
                "attributes": attributes,
            }
        )

    # -- context manager ----------------------------------------------

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self.start_wall = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self._start
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        self.tracer._pop(self)

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start": self.start_wall,
            "duration": self.duration,
        }
        if self.attributes:
            doc["attributes"] = self.attributes
        if self.events:
            doc["events"] = self.events
        return doc


class Tracer:
    """Collects finished spans; owns per-thread open-span stacks."""

    def __init__(self, registry=None, max_spans: int = 100_000) -> None:
        self.registry = registry
        self.max_spans = max_spans
        self.dropped = 0
        self._finished: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self._gen = 0
        self._default_trace_id: Optional[str] = None

    @property
    def enabled(self) -> bool:
        return self.registry is None or self.registry.enabled

    # -- trace context -------------------------------------------------

    def trace_id(self) -> str:
        """This thread's trace id (its override, else the process default)."""
        override = getattr(self._local, "trace_id", None)
        if override:
            return override
        if self._default_trace_id is None:
            with self._lock:
                if self._default_trace_id is None:
                    self._default_trace_id = new_trace_id()
        return self._default_trace_id

    def set_trace_id(self, trace_id: Optional[str]) -> None:
        """Install (or with ``None`` clear) this thread's trace id.

        The serving layer calls this at request entry with the incoming
        ``X-Slif-Trace-Id`` header value; worker processes call it with
        the coordinator's id before evaluating a chunk.
        """
        self._local.trace_id = trace_id

    # -- public API ----------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """Open a span (use as a context manager); no-op when disabled."""
        if not self.enabled:
            return NOOP_SPAN
        return Span(self, name, attributes)

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        if getattr(self._local, "gen", 0) != self._gen:
            return None
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def add_event(self, name: str, **attributes: Any) -> None:
        """Attach an event to the current span; silently no-op otherwise."""
        current = self.current()
        if current is not None:
            current.add_event(name, **attributes)

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._finished)

    def export_spans(self) -> List[Dict[str, Any]]:
        """Every finished span as a plain dict (for cross-process merge)."""
        return [span.to_dict() for span in self.spans()]

    def absorb_spans(
        self,
        docs: Iterable[Dict[str, Any]],
        parent_id: Optional[int] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Graft exported span dicts from another tracer into this one.

        Span ids are remapped into this tracer's id space so merged
        worker batches cannot collide with local spans (or each other);
        parent links *within* the batch are preserved, and batch roots
        are re-parented under ``parent_id`` (e.g. the coordinator's
        ``api.explore`` span).  ``attributes`` are stamped onto every
        absorbed span — the engine uses this for ``worker_pid``.
        Returns the number of spans absorbed.
        """
        docs = list(docs)
        with self._lock:
            mapping: Dict[int, int] = {}
            for doc in docs:
                mapping[doc["span_id"]] = self._next_id
                self._next_id += 1
            for doc in docs:
                span = Span(self, doc["name"], doc.get("attributes"))
                if attributes:
                    span.attributes.update(attributes)
                span.events = list(doc.get("events", []))
                span.span_id = mapping[doc["span_id"]]
                original_parent = doc.get("parent_id")
                span.parent_id = mapping.get(original_parent, parent_id)
                span.trace_id = doc.get("trace_id")
                span.start_wall = doc.get("start", 0.0)
                span.duration = doc.get("duration", 0.0)
                span.gen = self._gen
                if len(self._finished) < self.max_spans:
                    self._finished.append(span)
                else:
                    self.dropped += 1
        return len(docs)

    def reset(self) -> None:
        """Drop finished spans and invalidate every open-span stack.

        Bumping the generation means a span opened *before* this reset
        is discarded when it exits (its parent chain no longer exists)
        and cannot become the parent of spans opened *after* — the
        dangling-stack reparenting bug the generation exists to prevent.
        The process-default trace id is also renewed: one reset = one
        fresh logical trace.
        """
        with self._lock:
            self._finished = []
            self.dropped = 0
            self._gen += 1
            self._default_trace_id = None

    # -- span plumbing -------------------------------------------------

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None or getattr(self._local, "gen", 0) != self._gen:
            # first span on this thread, or the stack predates a reset
            stack = self._local.stack = []
            self._local.gen = self._gen
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
        span.gen = self._gen
        span.trace_id = self.trace_id()
        span.parent_id = stack[-1].span_id if stack else None
        stack.append(span)

    def _pop(self, span: Span) -> None:
        if span.gen != self._gen:
            # opened before a reset: its stack was invalidated and the
            # trace it belonged to was dropped — discard, don't record
            return
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # mispaired exit; recover
            stack.remove(span)
        with self._lock:
            if len(self._finished) < self.max_spans:
                self._finished.append(span)
            else:
                self.dropped += 1
