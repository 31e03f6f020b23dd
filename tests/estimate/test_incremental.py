"""Unit tests for incremental size/IO estimation under moves."""

import pytest

from repro.errors import EstimationError, PartitionError
from repro.estimate.compile import compile_graph
from repro.estimate.incremental import IncrementalEstimator
from repro.estimate.io import all_component_ios
from repro.estimate.size import all_component_sizes

from _helpers import build_demo_graph, build_demo_partition, move_by_name


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
    move_by_name(inc, "Sub", "HW")
    assert inc.component_size("CPU") == pytest.approx(121)
    assert inc.component_size("HW") == pytest.approx(400)
    inc.verify_consistency()


def test_move_updates_io(g, p):
    inc = IncrementalEstimator(g, p)
    assert inc.component_io("HW") == 0  # empty component
    move_by_name(inc, "Sub", "HW")
    assert inc.component_io("HW") == 16
    inc.verify_consistency()


def test_undo_restores_exactly(g, p):
    inc = IncrementalEstimator(g, p)
    before_sizes = inc.component_sizes()
    before_ios = inc.component_ios()
    inc.undo(*move_by_name(inc, "Sub", "HW"))
    assert inc.component_sizes() == before_sizes
    assert inc.component_ios() == before_ios
    inc.verify_consistency()


def test_noop_move_and_undo(g, p):
    inc = IncrementalEstimator(g, p)
    node, src = move_by_name(inc, "Sub", "CPU")  # already there
    assert src == inc.cg.comp_index["CPU"]
    inc.undo(node, src)
    inc.verify_consistency()


def test_many_moves_stay_consistent(g, p):
    inc = IncrementalEstimator(g, p)
    inc.component_ios()  # build the cut counts now, so every move updates them
    for comp in ["HW", "CPU", "HW", "CPU"]:
        move_by_name(inc, "Sub", comp)
        inc.verify_consistency()
    for comp in ["CPU", "HW", "RAM", "CPU"]:
        move_by_name(inc, "buf", comp)
        inc.verify_consistency()


def test_exec_time_recomputed_lazily(g, p):
    inc = IncrementalEstimator(g, p)
    before = inc.execution_time("Main")
    move_by_name(inc, "Sub", "HW")
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


def test_unknown_component_io_query_raises_as_a_size_query(g, p):
    """The I/O of a component the graph lacks is an error, not 0."""
    inc = IncrementalEstimator(g, p)
    with pytest.raises(PartitionError) as size:
        inc.component_size("ghost")
    with pytest.raises(PartitionError) as io:
        inc.component_io("ghost")
    assert str(io.value) == str(size.value) == "unknown component 'ghost'"


@pytest.mark.parametrize("failure", ["illegal target", "missing weight"])
def test_failed_move_changes_nothing(g, p, failure):
    """A move that raises leaves the tallies and the mapping as they were:
    a behavior never lands on a memory, and a missing size weight is
    found before anything changes."""
    from repro.core.annotations import WeightMap

    if failure == "illegal target":
        obj, comp, error = "Main", "RAM", PartitionError
        match = "object 'Main' may not be mapped to component 'RAM'"
    else:
        g.behaviors["Sub"].size = WeightMap({"proc": 60})
        obj, comp, error, match = "Sub", "HW", EstimationError, "'asic'"
    inc = IncrementalEstimator(g, p)
    inc.component_ios()  # build the cut counts now, so a move would update them
    before = (inc.component_sizes(), inc.component_ios(), p.object_mapping())
    with pytest.raises(error, match=match):
        move_by_name(inc, obj, comp)
    assert (inc.component_sizes(), inc.component_ios(), p.object_mapping()) == before
    assert inc.stats.moves_applied == 0
    inc.verify_consistency()


class TestMoveStats:
    """Move/undo telemetry stays consistent with the tallies."""

    def test_moves_and_undos_counted(self, g, p):
        inc = IncrementalEstimator(g, p)
        inc.component_ios()  # build the cut counts now, so every move updates them
        inc.undo(*move_by_name(inc, "Sub", "HW"))
        assert inc.stats.moves_applied == 1
        assert inc.stats.moves_undone == 1
        inc.verify_consistency()

    def test_noop_move_not_counted(self, g, p):
        inc = IncrementalEstimator(g, p)
        inc.undo(*move_by_name(inc, "Sub", "CPU"))   # already there
        assert inc.stats.moves_applied == 0
        assert inc.stats.moves_undone == 0

    def test_global_counters_when_enabled(self, g, p):
        from repro import obs

        obs.reset()
        obs.enable()
        try:
            inc = IncrementalEstimator(g, p)
            undo = move_by_name(inc, "Sub", "HW")
            move_by_name(inc, "buf", "CPU")
            inc.undo(*undo)
            inc.system_time()
            inc.publish()
            counters = obs.snapshot()["counters"]
            incremental = {
                name: count
                for name, count in counters.items()
                if name.startswith("estimate.incremental.")
            }
            assert incremental == {
                "estimate.incremental.moves_applied": 2,
                "estimate.incremental.moves_undone": 1,
            }
        finally:
            obs.disable()
            obs.reset()


class TestStaleChannelMapping:
    """A partition still mapping a channel or bus the graph no longer has
    fails as the graph's own lookup fails, not with a TypeError."""

    def test_inlined_channel_on_fuzzy(self):
        from repro.api import build_system
        from repro.errors import SlifNameError
        from repro.estimate.engine import Estimator
        from repro.partition.cost import PartitionCost
        from repro.transform import inline_procedure

        system = build_system("fuzzy")
        slif, partition = system.slif, system.partition
        inline_procedure(slif, "InitRules", "Min")  # the partition keeps its channel
        with pytest.raises(SlifNameError) as reference:
            Estimator(slif, partition).report()
        slif.processors["CPU"].io_constraint = 40
        for attempt in (
            lambda: IncrementalEstimator(slif, partition).component_ios(),
            lambda: PartitionCost(slif, partition).cost(),
        ):
            with pytest.raises(SlifNameError) as got:
                attempt()
            assert str(got.value) == str(reference.value) == (
                "no channel named 'InitRules->Min'"
            )

    def test_removed_bus(self, g, p):
        from repro.errors import SlifNameError

        del g.buses["sysbus"]
        inc = IncrementalEstimator(g, p)
        with pytest.raises(SlifNameError, match="no bus named 'sysbus'"):
            inc.component_io("HW")
        with pytest.raises(SlifNameError, match="no bus named 'sysbus'"):
            inc.component_ios()  # nothing was tallied by the first attempt


def test_self_loop_channels_never_drift(g, p):
    """A recursive call edge (self-loop) moves both endpoints at once and
    must never perturb the cut tallies."""
    from repro.core.channels import AccessKind, Channel

    g.add_channel(Channel("Sub->Sub", "Sub", "Sub", AccessKind.CALL))
    p.assign_channel("Sub->Sub", "sysbus")
    inc = IncrementalEstimator(g, p)
    inc.component_ios()  # build the cut counts now, so every move updates them
    undo = move_by_name(inc, "Sub", "HW")
    inc.verify_consistency()
    inc.undo(*undo)
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
        cg = inc.cg
        sub, cpu, hw = cg.node_index["Sub"], cg.comp_index["CPU"], cg.comp_index["HW"]
        for attempt in (
            lambda: inc.preview(sub, cpu, hw),
            lambda: inc.apply_move(sub, hw),
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
        before = list(inc.sizes)
        cg = inc.cg
        cpu, hw = cg.comp_index["CPU"], cg.comp_index["HW"]
        after = inc.preview(cg.node_index["Sub"], cpu, hw)
        assert after[cpu] == before[cpu] - 60
        assert after[hw] == before[hw] + 400
        assert inc.sizes == before  # integral weights round-trip
        assert p.get_bv_comp("Sub") == "CPU"
        assert inc.stats.moves_applied == 0

    def test_cut_delta_matches_applied_move(self, g, p):
        inc = IncrementalEstimator(g, p)
        before = inc.component_ios()
        cg = inc.cg
        cpu, hw = cg.comp_index["CPU"], cg.comp_index["HW"]
        delta = inc.cut_delta(cg.node_index["Sub"], cpu, hw)
        predicted = {c: inc.io(cg.comp_index[c], delta) for c in before}
        inc.apply_move(cg.node_index["Sub"], hw)
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
