"""Unit tests for incremental size/IO estimation under moves."""

import pytest

from repro.errors import EstimationError, PartitionError
from repro.estimate.compile import compile_graph
from repro.estimate.incremental import IncrementalEstimator
from repro.estimate.io import all_component_ios
from repro.estimate.size import all_component_sizes

from _helpers import build_demo_graph, build_demo_partition


@pytest.fixture
def g():
    return build_demo_graph()


@pytest.fixture
def p(g):
    return build_demo_partition(g)


def test_initial_tallies_match_fresh(g, p):
    inc = IncrementalEstimator(g, p)
    assert inc.component_sizes() == all_component_sizes(g, p)
    assert inc.component_ios() == all_component_ios(g, p)


def test_move_updates_sizes(g, p):
    inc = IncrementalEstimator(g, p)
    inc.component_ios()  # build the cut counts now, so every move updates them
    inc.apply_move("Sub", "HW")
    assert inc.component_size("CPU") == pytest.approx(121)
    assert inc.component_size("HW") == pytest.approx(400)
    inc.verify_consistency()


def test_move_updates_io(g, p):
    inc = IncrementalEstimator(g, p)
    assert inc.component_io("HW") == 0  # empty component
    inc.apply_move("Sub", "HW")
    assert inc.component_io("HW") == 16
    inc.verify_consistency()


def test_undo_restores_exactly(g, p):
    inc = IncrementalEstimator(g, p)
    before_sizes = inc.component_sizes()
    before_ios = inc.component_ios()
    record = inc.apply_move("Sub", "HW")
    inc.undo(record)
    assert inc.component_sizes() == before_sizes
    assert inc.component_ios() == before_ios
    inc.verify_consistency()


def test_noop_move_and_undo(g, p):
    inc = IncrementalEstimator(g, p)
    record = inc.apply_move("Sub", "CPU")  # already there
    inc.undo(record)
    inc.verify_consistency()


def test_many_moves_stay_consistent(g, p):
    inc = IncrementalEstimator(g, p)
    inc.component_ios()  # build the cut counts now, so every move updates them
    for comp in ["HW", "CPU", "HW", "CPU"]:
        inc.apply_move("Sub", comp)
        inc.verify_consistency()
    for comp in ["CPU", "HW", "RAM", "CPU"]:
        inc.apply_move("buf", comp)
        inc.verify_consistency()


def test_exec_time_recomputed_lazily(g, p):
    inc = IncrementalEstimator(g, p)
    before = inc.execution_time("Main")
    inc.apply_move("Sub", "HW")
    after = inc.execution_time("Main")
    assert after != before
    from repro.estimate.exectime import execution_time

    assert after == pytest.approx(execution_time(g, p, "Main"))


def test_system_time(g, p):
    inc = IncrementalEstimator(g, p)
    assert inc.system_time() == pytest.approx(inc.execution_time("Main"))


def test_requires_complete_partition(g):
    from repro.core.partition import Partition

    with pytest.raises(PartitionError):
        IncrementalEstimator(g, Partition(g))


def test_unknown_component_query_raises(g, p):
    inc = IncrementalEstimator(g, p)
    with pytest.raises(PartitionError):
        inc.component_size("ghost")


class TestMoveStats:
    """Move/undo telemetry stays consistent with the tallies."""

    def test_moves_and_undos_counted(self, g, p):
        inc = IncrementalEstimator(g, p)
        inc.component_ios()  # build the cut counts now, so every move updates them
        record = inc.apply_move("Sub", "HW")
        inc.undo(record)
        assert inc.stats.moves_applied == 1
        assert inc.stats.moves_undone == 1
        inc.verify_consistency()

    def test_noop_move_not_counted(self, g, p):
        inc = IncrementalEstimator(g, p)
        record = inc.apply_move("Sub", "CPU")   # already there
        inc.undo(record)
        assert inc.stats.moves_applied == 0
        assert inc.stats.moves_undone == 0

    def test_lazy_recompute_counting(self, g, p):
        inc = IncrementalEstimator(g, p)
        inc.execution_time("Main")
        assert inc.stats.recomputes == 0        # first eval: memo was clean
        inc.apply_move("Sub", "HW")             # marks dirty
        inc.apply_move("buf", "CPU")            # piggybacks on pending dirty
        inc.apply_move("flag", "HW")
        assert inc.stats.recomputes_avoided == 2
        inc.execution_time("Main")              # pays one recompute for 3 moves
        assert inc.stats.recomputes == 1
        inc.execution_time("Main")              # clean again: no extra recompute
        assert inc.stats.recomputes == 1

    def test_exec_stats_reachable_and_consistent(self, g, p):
        inc = IncrementalEstimator(g, p)
        inc.execution_time("Main")
        assert inc.exec_stats.memo_misses == 4
        inc.apply_move("Sub", "HW")
        inc.execution_time("Main")
        # invalidation started a fresh generation: misses counted anew
        assert inc.exec_stats.invalidations == 1
        assert inc.exec_stats.memo_misses == 4
        inc.verify_consistency()

    def test_global_counters_when_enabled(self, g, p):
        from repro import obs

        obs.reset()
        obs.enable()
        try:
            inc = IncrementalEstimator(g, p)
            record = inc.apply_move("Sub", "HW")
            inc.apply_move("buf", "CPU")
            inc.undo(record)
            inc.system_time()
            inc.publish()
            counters = obs.snapshot()["counters"]
            assert counters["estimate.incremental.moves_applied"] == 2
            assert counters["estimate.incremental.moves_undone"] == 1
            assert counters["estimate.incremental.recomputes_avoided"] == 2
            assert counters["estimate.incremental.recomputes"] == 1
        finally:
            obs.disable()
            obs.reset()


def test_self_loop_channels_never_drift(g, p):
    """A recursive call edge (self-loop) moves both endpoints at once and
    must never perturb the cut tallies."""
    from repro.core.channels import AccessKind, Channel

    g.add_channel(Channel("Sub->Sub", "Sub", "Sub", AccessKind.CALL))
    p.assign_channel("Sub->Sub", "sysbus")
    inc = IncrementalEstimator(g, p)
    inc.component_ios()  # build the cut counts now, so every move updates them
    record = inc.apply_move("Sub", "HW")
    inc.verify_consistency()
    inc.undo(record)
    inc.verify_consistency()


class TestMoveIndex:
    """Move scoring on the graph's compiled size table and incidence."""

    def test_weights_and_incident_channels(self, g):
        from repro.core.channels import AccessKind, Channel

        g.add_channel(Channel("Sub->Sub", "Sub", "Sub", AccessKind.CALL))
        cg = compile_graph(g)
        assert cg.comp_names == ["CPU", "HW", "RAM"]
        assert cg.covers_pools
        for name in g.bv_names():
            node = cg.node_index[name]
            assert cg.size[node] == [
                g.get_node(name).size.get(tech) for tech in ("proc", "asic", "mem")
            ]
            slots = cg.inc_slot[cg.inc_lo[node]:cg.inc_lo[node + 1]]
            # under its source, under a destination that is no port, no self-loop
            assert sorted(cg.slot_name[s] for s in slots) == sorted(
                ch.name
                for ch in g.channels.values()
                if name in (ch.src, ch.dst) and ch.src != ch.dst
            )

    def test_missing_weight_raises_the_reference_error(self, g, p):
        from repro.core.annotations import WeightMap
        from repro.estimate.size import object_size

        g.behaviors["Sub"].size = WeightMap({"proc": 60})
        with pytest.raises(EstimationError) as reference:
            object_size(g, "Sub", "HW")
        inc = IncrementalEstimator(g, p)
        inc.component_ios()  # build the cut counts now, so every move updates them
        before = inc.component_sizes()
        for attempt in (
            lambda: inc.preview_sizes("Sub", "HW"),
            lambda: inc.apply_move("Sub", "HW"),
        ):
            with pytest.raises(EstimationError) as got:
                attempt()
            assert str(got.value) == str(reference.value)
            assert inc.component_sizes() == before
        inc.verify_consistency()

    def test_index_of_another_graph_is_rejected(self, g, p):
        with pytest.raises(PartitionError, match="different graph"):
            IncrementalEstimator(g, p, compiled=compile_graph(build_demo_graph()))

    def test_preview_changes_nothing_but_rounding(self, g, p):
        inc = IncrementalEstimator(g, p)
        before = inc.component_sizes()
        src, after = inc.preview_sizes("Sub", "HW")
        assert src == "CPU"
        assert after["CPU"] == before["CPU"] - 60
        assert after["HW"] == before["HW"] + 400
        assert inc.component_sizes() == before  # integral weights round-trip
        assert p.get_bv_comp("Sub") == "CPU"
        assert inc.stats.moves_applied == 0

    def test_cut_delta_matches_applied_move(self, g, p):
        inc = IncrementalEstimator(g, p)
        before = inc.component_ios()
        delta = inc.cut_delta("Sub", "CPU", "HW")
        predicted = {c: inc.component_io(c, delta) for c in before}
        inc.apply_move("Sub", "HW")
        assert inc.component_ios() == predicted
        inc.verify_consistency()

    def test_works_without_the_kernel_on_a_call_cycle(self):
        from repro.core import SlifBuilder
        from repro.core.partition import single_bus_partition
        from repro.partition.greedy import greedy_improve

        slif = (
            SlifBuilder("cycle")
            .process("A", ict={"proc": 1.0, "asic": 1.0}, size={"proc": 7, "asic": 9})
            .procedure("B", ict={"proc": 1.0, "asic": 1.0}, size={"proc": 5, "asic": 3})
            .call("A", "B", freq=1)
            .call("B", "A", freq=1)
            .processor("CPU", "proc", size_constraint=8)
            .asic("HW", "asic")
            .bus("b", bitwidth=16, ts=0.1, td=1.0)
            .build()
        )
        compiled = compile_graph(slif)
        assert compiled.order_design is None  # the kernel abstains
        start = single_bus_partition(slif, {"A": "CPU", "B": "CPU"})
        shared = greedy_improve(slif, start, compiled=compiled)
        own = greedy_improve(slif, start)
        assert shared.cost == own.cost == 0.0
        assert shared.partition.object_mapping() == own.partition.object_mapping()
        assert shared.evaluations == own.evaluations
