"""Human-readable summary of the collected instrumentation.

:func:`render_summary` is what ``slif <cmd> --stats`` prints to stderr:
spans aggregated by name (count, total, mean, max), every counter and
gauge, histogram quantiles, and a short *derived* section that answers
the questions the paper's speed argument raises directly — the share
of candidates the batch kernel scored, estimator memo hit rate, cost
evaluations performed, annealing acceptance rate.
"""

from __future__ import annotations

from typing import Dict, List, Optional


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def _span_table(spans) -> List[str]:
    agg: Dict[str, List[float]] = {}
    for span in spans:
        agg.setdefault(span.name, []).append(span.duration)
    if not agg:
        return []
    name_w = max(len(n) for n in agg)
    lines = [
        "spans:",
        f"  {'name':<{name_w}}  {'count':>5}  {'total':>9}  {'mean':>9}  {'max':>9}",
    ]
    for name in sorted(agg):
        durations = agg[name]
        total = sum(durations)
        lines.append(
            f"  {name:<{name_w}}  {len(durations):>5}  "
            f"{_fmt_seconds(total):>9}  "
            f"{_fmt_seconds(total / len(durations)):>9}  "
            f"{_fmt_seconds(max(durations)):>9}"
        )
    return lines


def _ratio(numerator: float, denominator: float) -> str:
    if denominator <= 0:
        return "n/a"
    return f"{100.0 * numerator / denominator:.1f}%"


def _derived_lines(counters: Dict[str, int]) -> List[str]:
    lines: List[str] = []
    candidates = counters.get("kernel.candidates", 0)
    if candidates:
        scored = candidates - counters.get("kernel.unsupported", 0)
        lines.append(
            f"  kernel scored: {_ratio(scored, candidates)} "
            f"({scored} of {candidates} candidates)"
        )
    hits = counters.get("estimate.exectime.memo_hit", 0)
    misses = counters.get("estimate.exectime.memo_miss", 0)
    if hits or misses:
        lines.append(
            f"  exectime memo hit rate: {_ratio(hits, hits + misses)} "
            f"({hits} hits / {misses} misses)"
        )
    evaluations = counters.get("partition.cost.evaluations", 0)
    if evaluations:
        lines.append(f"  cost evaluations: {evaluations}")
    accepted = counters.get("partition.annealing.accepted", 0)
    rejected = counters.get("partition.annealing.rejected", 0)
    if accepted or rejected:
        lines.append(
            f"  annealing acceptance rate: "
            f"{_ratio(accepted, accepted + rejected)} "
            f"({accepted} accepted / {rejected} rejected)"
        )
    merges = counters.get("partition.clustering.merges", 0)
    if merges:
        lines.append(f"  cluster merges: {merges}")
    return lines


def render_summary(registry=None, tracer=None) -> str:
    """Multi-line instrumentation summary (spans, metrics, derived)."""
    from repro import obs

    registry = registry if registry is not None else obs.REGISTRY
    tracer = tracer if tracer is not None else obs.TRACER

    snapshot = registry.snapshot()
    lines: List[str] = ["== instrumentation summary =="]
    lines += _span_table(tracer.spans())
    if tracer.dropped:
        lines.append(f"  ({tracer.dropped} spans dropped past the buffer cap)")

    counters = snapshot["counters"]
    if counters:
        lines.append("counters:")
        name_w = max(len(n) for n in counters)
        for name, value in counters.items():
            lines.append(f"  {name:<{name_w}}  {value}")
    gauges = snapshot["gauges"]
    if gauges:
        lines.append("gauges:")
        name_w = max(len(n) for n in gauges)
        for name, value in gauges.items():
            lines.append(f"  {name:<{name_w}}  {value:g}")
    histograms = snapshot["histograms"]
    if histograms:
        lines.append("histograms:")
        for name, s in histograms.items():
            lines.append(
                f"  {name}  n={s['count']} mean={s['mean']:g} "
                f"p50={s['p50']:g} p95={s['p95']:g} p99={s['p99']:g} "
                f"max={s['max']:g} buckets={len(s['buckets'])}"
            )

    derived = _derived_lines(counters)
    if derived:
        lines.append("derived:")
        lines += derived
    if len(lines) == 1:
        lines.append("  (nothing recorded; was instrumentation enabled?)")
    return "\n".join(lines)
