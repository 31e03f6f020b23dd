"""Differential test: the batch kernel against the reference estimators.

``tests/estimate/test_kernel.py`` pins kernel/reference equivalence on
the four bundled specs.  This draws ``slif gen`` specs instead (deep
call hierarchies, fork-tag concurrency, no variables or no ports) plus
seeded random partitions, and requires every kernel answer to equal the
reference one by ``repr``: design points, and full reports in all three
frequency modes with and without concurrency.  The kernel may abstain
(``None``) only where the reference raises.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.channels import FreqMode
from repro.errors import SlifError
from repro.estimate.engine import Estimator
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
