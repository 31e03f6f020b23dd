"""Property-based tests on the estimation equations.

Invariants: estimates are finite and non-negative; min/avg/max modes
bracket each other; the incremental estimator never drifts from a
from-scratch recomputation under arbitrary move sequences; Eq. 4's sums
decompose over components.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channels import FreqMode
from repro.estimate.exectime import ExecTimeEstimator
from repro.estimate.incremental import IncrementalEstimator
from repro.estimate.io import all_component_ios
from repro.estimate.size import all_component_sizes, object_size
from repro.partition.random_part import random_partition

from _helpers import move_by_name
from test_prop_graph import slif_graphs


@given(slif_graphs(), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_execution_times_finite_and_nonnegative(g, seed):
    p = random_partition(g, seed=seed)
    est = ExecTimeEstimator(g, p)
    for b in g.behaviors:
        t = est.exectime(b)
        assert t >= 0.0
        assert t < float("inf")


@given(slif_graphs(), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_freq_modes_bracket(g, seed):
    p = random_partition(g, seed=seed)
    lo = ExecTimeEstimator(g, p, FreqMode.MIN)
    avg = ExecTimeEstimator(g, p, FreqMode.AVG)
    hi = ExecTimeEstimator(g, p, FreqMode.MAX)
    for b in g.behaviors:
        assert lo.exectime(b) <= avg.exectime(b) + 1e-9
        assert avg.exectime(b) <= hi.exectime(b) + 1e-9


@given(slif_graphs(), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_concurrent_never_slower_than_sequential(g, seed):
    p = random_partition(g, seed=seed)
    seq = ExecTimeEstimator(g, p, concurrent=False)
    con = ExecTimeEstimator(g, p, concurrent=True)
    for b in g.behaviors:
        assert con.exectime(b) <= seq.exectime(b) + 1e-9


@given(slif_graphs(), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_sizes_decompose_over_components(g, seed):
    """Eq. 4: total size across components equals sum of object weights."""
    p = random_partition(g, seed=seed)
    sizes = all_component_sizes(g, p)
    by_objects = 0.0
    for obj, comp in p.object_mapping().items():
        by_objects += object_size(g, obj, comp)
    assert abs(sum(sizes.values()) - by_objects) < 1e-6


@given(slif_graphs(), st.integers(0, 1000), st.data())
@settings(max_examples=25, deadline=None)
def test_incremental_never_drifts(g, seed, data):
    """Arbitrary apply/undo sequences keep tallies exact (the core
    correctness requirement behind the fast partitioning loop)."""
    p = random_partition(g, seed=seed)
    inc = IncrementalEstimator(g, p)
    inc.component_ios()  # build the cut counts now, so every move updates them
    objects = g.bv_names()
    comps = list(g.processors)
    var_comps = comps + list(g.memories)
    undo_stack = []
    for _ in range(data.draw(st.integers(1, 12))):
        if undo_stack and data.draw(st.booleans()):
            inc.undo(*undo_stack.pop())
        else:
            obj = data.draw(st.sampled_from(objects))
            pool = comps if obj in g.behaviors else var_comps
            comp = data.draw(st.sampled_from(pool))
            undo_stack.append(move_by_name(inc, obj, comp))
    inc.verify_consistency()
    assert inc.component_sizes() == all_component_sizes(g, p)
    assert inc.component_ios() == all_component_ios(g, p)


@given(slif_graphs(), st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_report_internally_consistent(g, seed):
    from repro.estimate.engine import estimate

    p = random_partition(g, seed=seed)
    report = estimate(g, p)
    if report.process_times:
        assert report.system_time == max(report.process_times.values())
    assert report.feasible == (not report.violations)
    for load in report.bus_loads.values():
        assert load.demand >= 0.0
        assert load.effective_bitrate <= load.capacity + 1e-9
