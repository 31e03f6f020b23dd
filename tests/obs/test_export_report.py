"""Tests for JSONL export, readback and the summary renderer."""

import json

import pytest

from repro.obs.export import jsonl_lines, read_jsonl, write_jsonl
from repro.obs.metrics import Registry
from repro.obs.report import render_summary
from repro.obs.tracing import Tracer


@pytest.fixture
def populated():
    registry = Registry(enabled=True)
    tracer = Tracer(registry=registry)
    with tracer.span("outer", spec="fuzzy"):
        with tracer.span("inner"):
            tracer.add_event("tick", step=1)
    registry.inc("estimate.exectime.memo_hit", 30)
    registry.inc("estimate.exectime.memo_miss", 10)
    registry.inc("partition.cost.evaluations", 123)
    registry.inc("partition.annealing.accepted", 8)
    registry.inc("partition.annealing.rejected", 2)
    registry.set_gauge("partition.annealing.temperature", 0.01)
    registry.observe("move.duration", 0.5)
    return registry, tracer


def test_jsonl_lines_are_parseable_and_typed(populated):
    registry, tracer = populated
    docs = [json.loads(line) for line in jsonl_lines(registry, tracer)]
    types = [d["type"] for d in docs]
    assert types[0] == "meta"
    assert types.count("span") == 2
    assert "counter" in types and "gauge" in types and "histogram" in types
    spans = {d["name"]: d for d in docs if d["type"] == "span"}
    assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
    assert spans["inner"]["events"][0]["attributes"] == {"step": 1}
    hist = [d for d in docs if d["type"] == "histogram"][0]
    assert hist["count"] == 1 and hist["p50"] == 0.5


def test_write_and_read_roundtrip(tmp_path, populated):
    registry, tracer = populated
    path = tmp_path / "trace.jsonl"
    count = write_jsonl(path, registry, tracer)
    docs = read_jsonl(path)
    assert len(docs) == count
    assert docs[0]["type"] == "meta"
    assert docs[0]["spans"] == 2


def test_render_summary_sections_and_derived(populated):
    registry, tracer = populated
    text = render_summary(registry, tracer)
    assert "spans:" in text
    assert "outer" in text and "inner" in text
    assert "counters:" in text
    assert "estimate.exectime.memo_hit" in text
    assert "gauges:" in text
    assert "histograms:" in text
    # the derived section answers the paper's questions directly
    assert "exectime memo hit rate: 75.0% (30 hits / 10 misses)" in text
    assert "cost evaluations: 123" in text
    assert "annealing acceptance rate: 80.0% (8 accepted / 2 rejected)" in text


def test_render_summary_kernel_scored_line():
    registry = Registry(enabled=True)
    text = render_summary(registry, Tracer(registry=registry))
    assert "kernel scored" not in text
    registry.inc("kernel.candidates", 8)
    text = render_summary(registry, Tracer(registry=registry))
    assert "  kernel scored: 100.0% (8 of 8 candidates)" in text
    registry.inc("kernel.unsupported", 2)
    text = render_summary(registry, Tracer(registry=registry))
    assert "  kernel scored: 75.0% (6 of 8 candidates)" in text


def test_render_summary_empty_is_graceful():
    registry = Registry()
    tracer = Tracer(registry=registry)
    text = render_summary(registry, tracer)
    assert "nothing recorded" in text


def test_global_helpers_respect_enable_disable():
    from repro import obs

    obs.reset()
    assert not obs.enabled()
    # disabled: spans are no-ops, counters only count if you call them
    with obs.span("ignored"):
        pass
    assert obs.TRACER.spans() == []
    obs.enable()
    try:
        with obs.span("seen"):
            obs.add_event("tick")
        obs.REGISTRY.inc("x")
        assert obs.snapshot()["counters"] == {"x": 1}
        assert [s.name for s in obs.TRACER.spans()] == ["seen"]
    finally:
        obs.disable()
        obs.reset()
