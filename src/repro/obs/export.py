"""JSONL export of collected metrics and spans.

One JSON document per line, each tagged with a ``type`` field:

``{"type": "meta", ...}``
    First line: export timestamp, span/drop counts, and the set of
    ``trace_ids`` present in the export.
``{"type": "span", "name": ..., "span_id": ..., "parent_id": ...,
  "trace_id": ..., "start": ..., "duration": ...,
  "attributes": {...}, "events": [...]}``
    One per finished span, in completion order.  ``parent_id`` is null
    for roots; ``trace_id`` groups spans belonging to one logical
    operation across threads and processes (spans merged back from
    worker processes carry a ``worker_pid`` attribute); ``start`` is a Unix
    wall-clock timestamp and ``duration`` is in seconds.
``{"type": "counter"|"gauge", "name": ..., "value": ...}``
``{"type": "histogram", "name": ..., "count": ..., "sum": ...,
  "mean": ..., "min": ..., "p50": ..., "p95": ..., "p99": ...,
  "max": ..., "buckets": {"<le>": <cumulative count>, ...}}``
    ``buckets`` maps each occupied log-scale bucket's inclusive upper
    bound (as a ``%.6g`` string) to the cumulative observation count at
    that bound — the Prometheus histogram shape, minus the implicit
    ``+Inf`` bucket (whose cumulative count is ``count``).

The format is trivially consumed by ``jq``, pandas, the ``slif obs``
analysis subcommand (waterfalls, slowest spans, run-to-run diffs), or a
ten-line Python loop — see the README's worked example.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Iterator, List, Optional, Union


def jsonl_lines(registry=None, tracer=None) -> Iterator[str]:
    """Serialize ``registry`` and ``tracer`` as JSONL lines (no newlines)."""
    from repro import obs

    registry = registry if registry is not None else obs.REGISTRY
    tracer = tracer if tracer is not None else obs.TRACER

    spans = tracer.spans()
    trace_ids = sorted({s.trace_id for s in spans if s.trace_id})
    yield json.dumps(
        {
            "type": "meta",
            "exported_at": time.time(),
            "spans": len(spans),
            "spans_dropped": tracer.dropped,
            "trace_ids": trace_ids,
        }
    )
    for span in spans:
        doc = span.to_dict()
        doc["type"] = "span"
        yield json.dumps(doc)
    snapshot = registry.snapshot()
    for name, value in snapshot["counters"].items():
        yield json.dumps({"type": "counter", "name": name, "value": value})
    for name, value in snapshot["gauges"].items():
        yield json.dumps({"type": "gauge", "name": name, "value": value})
    for name, summary in snapshot["histograms"].items():
        doc = {"type": "histogram", "name": name}
        doc.update(summary)
        yield json.dumps(doc)


def dumps_jsonl(registry=None, tracer=None) -> str:
    """The full JSONL export as one string (trailing newline included)."""
    return "".join(line + "\n" for line in jsonl_lines(registry, tracer))


def write_jsonl(
    path: Union[str, Path], registry=None, tracer=None
) -> int:
    """Write the JSONL export to ``path``; returns the line count."""
    lines = list(jsonl_lines(registry, tracer))
    Path(path).write_text("\n".join(lines) + "\n")
    return len(lines)


def read_jsonl(path: Union[str, Path]) -> List[dict]:
    """Parse a JSONL export back into a list of dicts (for analysis)."""
    docs = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            docs.append(json.loads(line))
    return docs
