"""Which public calls of each layer the traced run wraps, and the
per-layer metrics computed from the spans they record.

Layers are named after their modules: ``repro.api.frontends``,
``repro.api.session``, the ``repro.api`` facade, ``repro.estimate``,
``repro.partition``, ``repro.explore`` (with the ``repro.core.serialize``
payload), ``repro.serve`` and ``repro.obs``.  ``repro.synth.gen`` makes
the inputs and is not measured.

Every per-layer time is a mean per timed operation (one sweep, one
open, one served request), so the numbers add up along a request and do
not depend on how long the run was.  A layer that a workload does not
exercise reports 0.
"""

from __future__ import annotations

import importlib
from typing import Dict, Iterable, List, Optional

from tracer import ATTRS, END, NAME, OP, PARENT, START, Recorder

# -- what the traced run wraps -----------------------------------------

#: (module, function, span name) — patched in every module binding it
FUNCTIONS = [
    ("repro.api.session", "load", "session.load"),
    ("repro.api.session", "_key_from_resolved", "session.key"),
    ("repro.api.session", "session_key", "session.session_key"),
    ("repro.api.facade", "estimate", "api.estimate"),
    ("repro.api.facade", "estimate_many", "api.estimate_many"),
    ("repro.api.facade", "partition", "api.partition"),
    ("repro.api.facade", "explore", "api.explore"),
    ("repro.estimate.compile", "compile_graph", "estimate.compile"),
    ("repro.partition.greedy", "greedy_improve", "partition.descent"),
    ("repro.explore.plan", "pareto_plan", "explore.plan"),
    ("repro.core.serialize", "slif_to_dict", "explore.payload"),
    ("repro.core.serialize", "partition_to_dict", "explore.payload"),
    ("repro.core.serialize", "slif_from_dict", "explore.payload"),
    ("repro.core.serialize", "partition_from_dict", "explore.payload"),
    ("repro.explore.engine", "run_plan", "explore.run_plan"),
    ("repro.explore.engine", "merge_fronts", "explore.merge"),
]

#: (module, class, method, span name)
METHODS = [
    ("repro.api.session", "Session", "kernel", "session.kernel"),
    ("repro.api.frontends", "FrontEndRegistry", "resolve", "frontends.resolve"),
    ("repro.api.frontends", "FrontEndRegistry", "parse", "frontends.parse"),
    ("repro.estimate.engine", "Estimator", "report", "estimate.report"),
    ("repro.estimate.kernel", "BatchKernel", "reports", "estimate.kernel_reports"),
    ("repro.estimate.kernel", "BatchKernel", "evaluate", "estimate.kernel_evaluate"),
    ("repro.explore.worker", "ChunkRunner", "run_chunk", "explore.chunk"),
]

#: hot methods: counted and timed in aggregate, no span per call
TOTALS = [
    ("repro.estimate.incremental", "IncrementalEstimator", "apply_move",
     "estimate.incremental_move"),
    ("repro.estimate.incremental", "IncrementalEstimator", "undo",
     "estimate.incremental_undo"),
]

#: server-side methods (installed by the serve launcher only)
SERVE_METHODS = [
    ("repro.serve.batching", "MicroBatcher", "run_grouped", "serve.batch"),
    ("repro.serve.cache", "GraphCache", "key_for", "serve.cache_key"),
    ("repro.serve.cache", "GraphCache", "get", "serve.cache_get"),
]


def _scored(rec: Recorder, index: int, args, kwargs, result) -> None:
    attrs = rec.attrs(index)
    attrs["submitted"] = len(result)
    attrs["scored"] = sum(1 for item in result if item is not None)


def _descent(rec: Recorder, index: int, args, kwargs, result) -> None:
    attrs = rec.attrs(index)
    attrs["iterations"] = result.iterations
    attrs["evaluations"] = result.evaluations


def _trace_compute(rec: Recorder, args, kwargs):
    # MicroBatcher.run_grouped(self, group, key, batch_compute)
    if "batch_compute" in kwargs:
        kwargs = dict(kwargs)
        kwargs["batch_compute"] = rec.span_wrapper(
            kwargs["batch_compute"], "serve.compute"
        )
    else:
        args = args[:3] + (rec.span_wrapper(args[3], "serve.compute"),) + args[4:]
    return args, kwargs


def _trace_id(args, kwargs) -> Optional[str]:
    # SlifServer.handle_timed(self, method, path, body, trace_id=...)
    return kwargs.get("trace_id") or (args[4] if len(args) > 4 else None)


HOOKS = {
    "estimate.kernel_reports": _scored,
    "estimate.kernel_evaluate": _scored,
    "partition.descent": _descent,
}


def install(rec: Recorder, serve: bool = False) -> None:
    """Patch every wrapped call so it records into ``rec``."""
    for module, _, _ in FUNCTIONS:
        importlib.import_module(module)
    for module, attr, name in FUNCTIONS:
        rec.patch_function(
            module, attr,
            lambda fn, name=name: rec.span_wrapper(fn, name, HOOKS.get(name)),
        )
    for module, cls_name, attr, name in METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        rec.patch(cls, attr, rec.span_wrapper(
            cls.__dict__[attr], name, HOOKS.get(name)
        ))
    frontends = importlib.import_module("repro.api.frontends")
    for obj in vars(frontends).values():
        if isinstance(obj, type) and issubclass(obj, frontends.FrontEnd):
            for attr in ("sniff", "sniff_source"):
                if attr in obj.__dict__:
                    rec.patch(obj, attr, rec.span_wrapper(
                        obj.__dict__[attr], "frontends.sniff"
                    ))
    for module, cls_name, attr, name in TOTALS:
        cls = getattr(importlib.import_module(module), cls_name)
        rec.patch(cls, attr, rec.total_wrapper(cls.__dict__[attr], name))
    if not serve:
        return
    app = importlib.import_module("repro.serve.app")
    rec.patch(app.SlifServer, "handle_timed", rec.span_wrapper(
        app.SlifServer.__dict__["handle_timed"], "serve.handle", op_of=_trace_id
    ))
    for module, cls_name, attr, name in SERVE_METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        wrap_args = _trace_compute if name == "serve.batch" else None
        rec.patch(cls, attr, rec.span_wrapper(
            cls.__dict__[attr], name, wrap_args=wrap_args
        ))
    # only the response encoder's binding: canonical_json is also used
    # inside the front ends, where it is not response encoding
    rec.patch(app, "canonical_json", rec.span_wrapper(
        vars(app)["canonical_json"], "serve.encode"
    ))


# -- the metrics --------------------------------------------------------

#: per-layer metric -> the end-to-end metric (and workload) it should move;
#: names, units and better-directions live in BENCHMARK.json
MOVES = {
    "frontends.sniff_s": "latency_p50_ms on open-gen10k",
    "frontends.resolve_s": "latency_p50_ms on open-gen10k",
    "frontends.parse_s": "latency_p50_ms on open-gen10k",
    "frontends.resolve_calls_per_request": "latency_p50_ms on serve-estimate-gen1k",
    "session.load_s": "latency_p50_ms on open-gen10k",
    "session.key_s": "latency_p50_ms on open-gen10k",
    "session.load_self_s": "latency_p50_ms on open-gen10k",
    "session.kernel_s": "latency_p50_ms on open-gen10k; setup_s on explore-gen1k-jobs1",
    "api.estimate_s": "latency_p50_ms on open-gen10k",
    "api.estimate_many_s": "latency_p50_ms on open-gen10k and serve-estimate-*",
    "api.partition_s": "latency_p50_ms on open-gen10k",
    "api.explore_s": "latency_p50_ms on explore-gen1k-*",
    "estimate.report_s": "latency_p50_ms on open-gen10k",
    "estimate.report_calls": "latency_p50_ms on open-gen10k",
    "estimate.compile_s": "latency_p50_ms on open-gen10k and explore-gen1k-jobs1",
    "estimate.compile_calls": "latency_p50_ms on explore-gen1k-jobs1",
    "estimate.kernel_reports_s": "latency_p50_ms on open-gen10k and serve-estimate-*",
    "estimate.kernel_evaluate_s": "latency_p50_ms on explore-gen1k-jobs1",
    "estimate.kernel_candidates": "latency_p50_ms on explore-gen1k-jobs1",
    "estimate.kernel_scored_ratio": "latency_p50_ms on explore-gen1k-jobs1",
    "estimate.incremental_moves":
        "latency_p50_ms on explore-gen1k-jobs1 and open-gen10k",
    "estimate.incremental_undos":
        "latency_p50_ms on explore-gen1k-jobs1 and open-gen10k",
    "estimate.incremental_s": "latency_p50_ms on explore-gen1k-jobs1 and open-gen10k",
    "partition.descent_s":
        "latency_p50_ms on explore-gen1k-jobs1 (many short) and open-gen10k (one long)",
    "partition.descents": "latency_p50_ms on explore-gen1k-jobs1 and open-gen10k",
    "partition.evaluations": "latency_p50_ms on explore-gen1k-jobs1 and open-gen10k",
    "partition.accept_ratio": "latency_p50_ms on explore-gen1k-jobs1 and open-gen10k",
    "explore.plan_s": "latency_p50_ms on explore-gen1k-jobs1",
    "explore.payload_s": "latency_p50_ms on explore-gen1k-jobs1",
    "explore.chunk_s": "latency_p50_ms on explore-gen1k-jobs1",
    "explore.chunks": "latency_p50_ms on explore-gen1k-jobs1",
    "explore.merge_s": "latency_p50_ms on explore-gen1k-jobs1",
    "explore.run_plan_s":
        "latency_p50_ms on explore-gen1k-jobs1 and explore-gen1k-jobs2",
    "serve.handle_ms": "latency_p50_ms on serve-estimate-bundled",
    "serve.framing_ms": "latency_p50_ms on serve-estimate-bundled",
    "serve.batch_wait_ms": "latency_p50_ms on serve-estimate-bundled",
    "serve.cache_key_ms": "latency_p50_ms on serve-estimate-gen1k",
    "serve.cache_get_ms": "latency_p50_ms on serve-estimate-gen1k",
    "serve.compute_ms": "latency_p50_ms on serve-estimate-*",
    "serve.encode_ms": "latency_p50_ms on serve-estimate-*",
    "serve.cache_hit_ratio": "latency_p50_ms on serve-estimate-gen1k",
    "serve.batch_size": "throughput_per_s (report row) on serve-estimate-gen1k",
    "serve.cache_hits": "latency_p50_ms on serve-estimate-gen1k",
    "serve.cache_misses": "latency_p50_ms on serve-estimate-gen1k",
    "serve.batch_leaders": "throughput_per_s (report row) on serve-estimate-*",
    "serve.batch_coalesced": "throughput_per_s (report row) on serve-estimate-*",
    "serve.red_estimate_ms": "latency_p50_ms on serve-estimate-*",
    "obs.overhead_ratio": "latency_p50_ms on every workload (explore-gen1k-jobs1 most)",
    "trace.overhead_ratio": "none: cost of this benchmark's tracing",
    "trace.coverage": "none: share of each operation the layer spans cover",
}


def _child_time(spans: List[list]) -> Dict[int, float]:
    """Seconds each span's direct children cover (they never overlap:
    children run one after another on their parent's thread)."""
    covered: Dict[int, float] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None and span[END] is not None:
            covered[parent] = covered.get(parent, 0.0) + span[END] - span[START]
    return covered


class SpanIndex:
    """Totals per span name over the spans of the chosen operations."""

    def __init__(self, spans: List[list], ops: Iterable[str]) -> None:
        ops = set(ops)
        child_time = _child_time(spans)
        self.count: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.attrs: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(spans):
            if span[OP] not in ops or span[END] is None:
                continue
            name, duration = span[NAME], span[END] - span[START]
            self.count[name] = self.count.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = (
                self.self_time.get(name, 0.0)
                + duration - child_time.get(index, 0.0)
            )
            sums = self.attrs.setdefault(name, {})
            for key, value in span[ATTRS].items():
                if isinstance(value, (int, float)):
                    sums[key] = sums.get(key, 0) + value

    def attr(self, name: str, key: str) -> float:
        return self.attrs.get(name, {}).get(key, 0)


def coverage(
    spans: List[list], root_name: str, ops: Optional[Iterable[str]] = None
) -> float:
    """Lowest share of a root span's time its direct children cover."""
    ops = None if ops is None else set(ops)
    covered = _child_time(spans)
    shares = [
        covered.get(index, 0.0) / (span[END] - span[START])
        for index, span in enumerate(spans)
        if span[NAME] == root_name and span[END] is not None
        and span[END] > span[START] and (ops is None or span[OP] in ops)
    ]
    return min(shares) if shares else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    idx: SpanIndex, totals: Dict[str, List[float]], n_ops: int
) -> Dict[str, float]:
    """Per-operation means of every span-derived per-layer metric.

    Metrics the spans cannot give (ratios of whole runs, server
    counters) start at 0 for the workload to fill in.
    """

    def per_op(value: float) -> float:
        return _ratio(value, n_ops)

    def seconds(name: str) -> float:
        return per_op(idx.total.get(name, 0.0))

    def millis(name: str) -> float:
        return seconds(name) * 1e3

    def calls(name: str) -> float:
        return per_op(idx.count.get(name, 0))

    moves = totals.get("estimate.incremental_move", [0, 0.0])
    undos = totals.get("estimate.incremental_undo", [0, 0.0])
    submitted = (idx.attr("estimate.kernel_evaluate", "submitted")
                 + idx.attr("estimate.kernel_reports", "submitted"))
    scored = (idx.attr("estimate.kernel_evaluate", "scored")
              + idx.attr("estimate.kernel_reports", "scored"))
    values = dict.fromkeys(MOVES, 0.0)
    values.update({
        "frontends.sniff_s": seconds("frontends.sniff"),
        "frontends.resolve_s": seconds("frontends.resolve"),
        "frontends.parse_s": seconds("frontends.parse"),
        "frontends.resolve_calls_per_request": calls("frontends.resolve"),
        "session.load_s": seconds("session.load"),
        "session.key_s": seconds("session.key"),
        "session.load_self_s": per_op(idx.self_time.get("session.load", 0.0)),
        "session.kernel_s": seconds("session.kernel"),
        "api.estimate_s": seconds("api.estimate"),
        "api.estimate_many_s": seconds("api.estimate_many"),
        "api.partition_s": seconds("api.partition"),
        "api.explore_s": seconds("api.explore"),
        "estimate.report_s": seconds("estimate.report"),
        "estimate.report_calls": calls("estimate.report"),
        "estimate.compile_s": seconds("estimate.compile"),
        "estimate.compile_calls": calls("estimate.compile"),
        "estimate.kernel_reports_s": seconds("estimate.kernel_reports"),
        "estimate.kernel_evaluate_s": seconds("estimate.kernel_evaluate"),
        "estimate.kernel_candidates": per_op(submitted),
        "estimate.kernel_scored_ratio": _ratio(scored, submitted),
        "estimate.incremental_moves": per_op(moves[0]),
        "estimate.incremental_undos": per_op(undos[0]),
        "estimate.incremental_s": per_op(moves[1] + undos[1]),
        "partition.descent_s": seconds("partition.descent"),
        "partition.descents": calls("partition.descent"),
        "partition.evaluations": per_op(
            idx.attr("partition.descent", "evaluations")
        ),
        "partition.accept_ratio": _ratio(
            idx.attr("partition.descent", "iterations"),
            idx.attr("partition.descent", "evaluations"),
        ),
        "explore.plan_s": seconds("explore.plan"),
        "explore.payload_s": seconds("explore.payload"),
        "explore.chunk_s": seconds("explore.chunk"),
        "explore.chunks": calls("explore.chunk"),
        "explore.merge_s": seconds("explore.merge"),
        "explore.run_plan_s": seconds("explore.run_plan"),
        "serve.handle_ms": millis("serve.handle"),
        "serve.batch_wait_ms": per_op(
            idx.self_time.get("serve.batch", 0.0)
        ) * 1e3,
        "serve.cache_key_ms": millis("serve.cache_key"),
        "serve.cache_get_ms": millis("serve.cache_get"),
        "serve.compute_ms": millis("serve.compute"),
    })
    return values
