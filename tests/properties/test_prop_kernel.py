"""Differential test: the batch kernel against the reference estimators.

``tests/estimate/test_kernel.py`` pins kernel/reference equivalence on
the four bundled specs.  This draws ``slif gen`` specs instead (deep
call hierarchies, fork-tag concurrency, no variables or no ports) plus
seeded random partitions, and requires every kernel answer to equal the
reference one by ``repr``: design points, and full reports in all three
frequency modes with and without concurrency.  The kernel may abstain
(``None``) only where the reference raises.

It also pins the two shortcuts the kernel takes: the six reports of one
partition share one mode-independent half, yet each owns its dicts and
lists; and one DFS yields both evaluation orders, the design order a
prefix of the report order.
"""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _golden
from repro import api
from repro.core.channels import AccessKind, Channel, FreqMode
from repro.core.nodes import Behavior
from repro.errors import SlifError
from repro.estimate.compile import compile_graph
from repro.estimate.engine import Estimator, Violation
from repro.estimate.kernel import BatchKernel
from repro.partition.pareto import evaluate_design_point
from repro.partition.random_part import random_partition
from repro.synth.gen import GenConfig, generate_text

gen_configs = st.builds(
    GenConfig,
    behaviors=st.integers(2, 150),
    seed=st.integers(0, 2**16),
    fanout=st.floats(1.0, 4.0),
    concurrency=st.floats(0.0, 1.0),
    depth=st.integers(1, 8),
    variables=st.integers(0, 20),
    ports=st.integers(0, 6),
)


def assert_same(got, compute):
    """``got`` is ``compute()`` by repr, or None where ``compute`` raises."""
    try:
        expected = compute()
    except SlifError:
        assert got is None
        return
    assert got is not None
    assert repr(got) == repr(expected)


@given(gen_configs, st.lists(st.integers(0, 10_000), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_kernel_matches_reference(config, seeds):
    session = api.load(generate_text(config))
    slif = session.slif
    kernel = BatchKernel.for_graph(slif)
    partitions = [session.partition] + [
        random_partition(slif, seed=seed, name=f"r{seed}") for seed in seeds
    ]

    candidates = [(partition, partition.name) for partition in partitions]
    for (partition, label), point in zip(
        candidates, kernel.evaluate(candidates, ["HW"])
    ):
        assert_same(
            point, lambda: evaluate_design_point(slif, partition, ["HW"], label)
        )

    items = [
        (partition, mode, concurrent)
        for partition in partitions
        for mode in FreqMode
        for concurrent in (False, True)
    ]
    for (partition, mode, concurrent), report in zip(items, kernel.reports(items)):
        assert_same(
            report, lambda: Estimator(slif, partition, mode, concurrent).report()
        )


@given(gen_configs, st.integers(0, 10_000), st.booleans())
@settings(max_examples=15, deadline=None)
def test_shared_report_half_matches_reference(config, seed, constrain):
    session = api.load(generate_text(config))
    slif = session.slif
    kernel = BatchKernel.for_graph(slif)
    other = random_partition(slif, seed=seed, name=f"r{seed}")
    # the six pairs of the session partition, each followed by the same
    # pair of a second partition
    items = [
        (partition, mode, concurrent)
        for mode in FreqMode
        for concurrent in (False, True)
        for partition in (session.partition, other)
    ]
    # binding CPU size and pin budgets, so violations are non-empty
    with _golden.constrained(session) if constrain else nullcontext():
        reports = kernel.reports(items)
        for (partition, mode, concurrent), report in zip(items, reports):
            assert_same(
                report, lambda: Estimator(slif, partition, mode, concurrent).report()
            )

    scored = [report for report in reports if report is not None]
    if not scored:
        return
    before = [repr(report) for report in scored[1:]]
    first = scored[0]
    first.component_sizes["<added>"] = 1.0
    first.component_ios.clear()
    first.violations.append(Violation("<added>", "size", 1.0, 0.0))
    assert [repr(report) for report in scored[1:]] == before


@given(gen_configs, st.booleans())
@settings(max_examples=25, deadline=None)
def test_one_dfs_yields_both_evaluation_orders(config, orphans):
    slif = api.load(generate_text(config)).slif
    if orphans:
        # procedures no process reaches, one calling into the graph: only
        # the report order visits them
        procedures = [b.name for b in slif.behaviors.values() if not b.is_process]
        slif.add_behavior(Behavior("orphan_a"))
        slif.add_behavior(Behavior("orphan_b"))
        for callee in ["orphan_b"] + procedures[-1:]:
            slif.add_channel(
                Channel(f"orphan_a->{callee}", "orphan_a", callee, kind=AccessKind.CALL)
            )
    cg = compile_graph(slif)
    design, report = cg.order_design, cg.order_report
    assert design == report[: len(design)]
    assert len(set(report)) == len(report)
    if orphans:
        assert len(report) > len(design)

    position = {node: i for i, node in enumerate(report)}
    for node in report:
        if node < cg.n_behaviors:
            for slot in range(cg.chan_lo[node], cg.chan_hi[node]):
                callee = cg.slot_dst[slot]
                if callee >= 0:
                    assert position[callee] < position[node]

    def reachable(roots):
        seen, stack = set(), list(roots)
        while stack:
            name = stack.pop()
            if name in seen or name in slif.ports:
                continue
            seen.add(name)
            if name in slif.behaviors:
                stack += [ch.dst for ch in slif.out_channels(name)]
        return seen

    processes = [p.name for p in slif.processes()]
    sources = processes + [ch.src for ch in slif.channels.values()]
    assert {cg.node_names[n] for n in design} == reachable(processes)
    assert {cg.node_names[n] for n in report} == reachable(sources)


@given(gen_configs)
@settings(max_examples=10, deadline=None)
def test_cycle_behind_a_non_process_source_is_unavailable(config):
    session = api.load(generate_text(config))
    slif, start = session.slif, session.partition
    # two procedures no process reaches: only the report order visits them
    a, b = "cycle_a", "cycle_b"
    for name in (a, b):
        slif.add_behavior(Behavior(name))
    slif.add_channel(Channel(f"{a}->{b}", a, b, kind=AccessKind.CALL))
    assert compile_graph(slif).order_report is not None
    slif.add_channel(Channel(f"{b}->{a}", b, a, kind=AccessKind.CALL))
    cg = compile_graph(slif)
    # the design order alone would exist, yet the kernel scores nothing
    assert cg.order_design is None and cg.order_report is None
    kernel = BatchKernel(cg)
    assert kernel.evaluate([(start, "start")], ["HW"]) == [None]
    assert kernel.reports([(start, FreqMode.AVG, False)]) == [None]
