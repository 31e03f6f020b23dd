"""Unit tests for the partitioning cost function."""

import pytest

from repro.errors import PartitionError
from repro.partition.cost import CostWeights, PartitionCost

from _helpers import build_demo_graph, build_demo_partition, move_by_name


@pytest.fixture
def g():
    return build_demo_graph()


def test_feasible_partition_costs_zero(g):
    p = build_demo_partition(g)
    assert PartitionCost(g, p).cost() == 0.0


def test_size_violation_normalized(g):
    g.processors["CPU"].size_constraint = 100
    p = build_demo_partition(g)  # CPU holds 181
    cost = PartitionCost(g, p).cost()
    assert cost == pytest.approx((181 - 100) / 100)


def test_io_violation_normalized(g):
    g.processors["HW"].io_constraint = 8
    p = build_demo_partition(g, sub_on="HW")  # HW boundary crossed: 16 wires
    cost = PartitionCost(g, p).cost()
    assert cost == pytest.approx((16 - 8) / 8)


def test_time_constraint_term(g):
    p = build_demo_partition(g)
    pc = PartitionCost(g, p, time_constraint=100.0)
    time = pc.inc.system_time()
    assert time > 100.0
    assert pc.cost() == pytest.approx((time - 100.0) / 100.0)


def test_time_constraint_satisfied_is_free(g):
    p = build_demo_partition(g)
    pc = PartitionCost(g, p, time_constraint=1e9)
    assert pc.cost() == 0.0


def test_balance_term_prefers_spread(g):
    weights = CostWeights(size=0.0, io=0.0, time=0.0, balance=1.0)
    lumped = build_demo_partition(g)  # nearly everything on CPU
    pc = PartitionCost(g, lumped, weights)
    lumped_cost = pc.cost()
    undo = move_by_name(pc.inc, "Sub", "HW")
    spread_cost = pc.cost()
    assert spread_cost < lumped_cost
    pc.inc.undo(*undo)
    assert pc.cost() == lumped_cost


def test_weights_scale_terms(g):
    g.processors["CPU"].size_constraint = 100
    p = build_demo_partition(g)
    base = PartitionCost(g, p, CostWeights(size=1.0)).cost()
    doubled = PartitionCost(g, p, CostWeights(size=2.0)).cost()
    assert doubled == pytest.approx(2 * base)


def test_try_move_leaves_state_unchanged(g):
    p = build_demo_partition(g)
    pc = PartitionCost(g, p)
    before = p.object_mapping()
    pc.try_move("Sub", "HW")
    assert p.object_mapping() == before
    pc.inc.verify_consistency()


def test_try_move_predicts_applied_cost(g):
    g.processors["CPU"].size_constraint = 150
    p = build_demo_partition(g)
    pc = PartitionCost(g, p)
    predicted = pc.try_move("Sub", "HW")
    move_by_name(pc.inc, "Sub", "HW")
    assert pc.cost() == pytest.approx(predicted)


def test_candidate_components_respect_kinds(g):
    """A behavior may move to the processors, a variable to every
    component, processors first; a node's candidates are its pool but
    its own component."""
    p = build_demo_partition(g)
    pc = PartitionCost(g, p)
    cg = pc.inc.cg
    pools = {
        obj: [cg.comp_names[c] for c in pc.pool(node)]
        for node, obj in enumerate(cg.node_names)
    }
    assert pools == {
        "Main": ["CPU", "HW"],
        "Sub": ["CPU", "HW"],
        "buf": ["CPU", "HW", "RAM"],
        "flag": ["CPU", "HW", "RAM"],
    }
    mapping = p.object_mapping()
    assert set(pools["Main"]) - {mapping["Main"]} == {"HW"}  # behaviors: processors only
    assert set(pools["buf"]) - {mapping["buf"]} == {"CPU", "HW"}  # currently on RAM
    # a pass scores one trial per candidate component
    for start in range(cg.n_nodes + 1):
        assert pc.pass_trials(start) == sum(
            len(pc.pool(node)) - 1 for node in range(start, cg.n_nodes)
        )


def test_movable_objects_are_all_bv(g):
    p = build_demo_partition(g)
    assert set(PartitionCost(g, p).inc.cg.node_names) == {
        "Main",
        "Sub",
        "buf",
        "flag",
    }


def test_evaluation_counter(g):
    p = build_demo_partition(g)
    pc = PartitionCost(g, p)
    pc.cost()
    pc.try_move("Sub", "HW")
    assert pc.evaluations == 2


def test_try_move_without_time_term_leaves_partition_alone(g):
    """Read-only scoring never goes through apply/undo."""
    p = build_demo_partition(g)
    pc = PartitionCost(g, p)
    pc.try_move("Sub", "HW")
    pc.try_move("buf", "CPU")
    assert pc.inc.stats.moves_applied == 0
    assert pc.inc.stats.moves_undone == 0


def test_try_move_with_time_term_applies_and_undoes(g):
    p = build_demo_partition(g)
    pc = PartitionCost(g, p, time_constraint=100.0)
    predicted = pc.try_move("Sub", "HW")
    assert (pc.inc.stats.moves_applied, pc.inc.stats.moves_undone) == (1, 1)
    move_by_name(pc.inc, "Sub", "HW")
    assert pc.cost() == predicted


def test_try_move_to_current_component_is_current_cost(g):
    g.processors["CPU"].size_constraint = 100
    p = build_demo_partition(g)
    pc = PartitionCost(g, p)
    assert pc.try_move("Sub", "CPU") == pc.cost()


def test_try_move_scores_io_budget(g):
    g.processors["HW"].io_constraint = 8
    p = build_demo_partition(g)
    pc = PartitionCost(g, p)
    assert pc.cost() == 0.0  # HW empty: nothing cut
    assert pc.try_move("Sub", "HW") == pytest.approx((16 - 8) / 8)
    assert pc.inc.component_io("HW") == 0


@pytest.mark.parametrize("time_constraint", [None, 100.0])
def test_try_move_rejects_an_illegal_target(g, time_constraint):
    """Scored read-only or applied, a behavior never lands on a memory."""
    p = build_demo_partition(g)
    pc = PartitionCost(g, p, time_constraint=time_constraint)
    before = (p.object_mapping(), pc.inc.component_sizes())
    with pytest.raises(
        PartitionError,
        match="behavior 'Sub' may only be mapped to a processor; 'RAM' is not one",
    ):
        pc.try_move("Sub", "RAM")
    assert (p.object_mapping(), pc.inc.component_sizes()) == before
    pc.inc.verify_consistency()


@pytest.mark.parametrize("time_constraint", [None, 100.0])
def test_try_move_of_an_unknown_object_raises(g, time_constraint):
    """An object the graph lacks fails a trial at the name door, scored
    read-only or applied, and the trial changes nothing."""
    from repro.errors import SlifNameError

    p = build_demo_partition(g)
    pc = PartitionCost(g, p, time_constraint=time_constraint)
    pc.inc.component_ios()  # build the cut counts now, so a move would update them
    before = (p.object_mapping(), pc.inc.component_sizes(), pc.inc.component_ios())
    with pytest.raises(SlifNameError, match="no behavior or variable named 'ghost'"):
        pc.try_move("ghost", "HW")
    assert (
        p.object_mapping(), pc.inc.component_sizes(), pc.inc.component_ios()
    ) == before
    assert pc.inc.stats.moves_applied == 0
    pc.inc.verify_consistency()


def test_timed_try_move_that_raises_undoes_its_move(g):
    """A trial whose cost raises still leaves no net change."""
    p = build_demo_partition(g)
    pc = PartitionCost(g, p, time_constraint=0.0)
    before = (p.object_mapping(), pc.inc.component_sizes())
    with pytest.raises(PartitionError, match="must be positive"):
        pc.try_move("Main", "HW")
    assert (p.object_mapping(), pc.inc.component_sizes()) == before
    assert (pc.inc.stats.moves_applied, pc.inc.stats.moves_undone) == (1, 1)
    pc.inc.verify_consistency()


class TestZeroBudgets:
    """A budget of zero (or below) is a PartitionError, not a crash."""

    def test_zero_io_budget_with_a_cut_channel(self, g):
        g.processors["HW"].io_constraint = 0
        p = build_demo_partition(g, sub_on="HW")
        with pytest.raises(PartitionError, match="processor 'HW'"):
            PartitionCost(g, p).cost()

    def test_zero_io_budget_reached_by_a_trial_move(self, g):
        g.processors["HW"].io_constraint = 0
        p = build_demo_partition(g)
        pc = PartitionCost(g, p)
        assert pc.cost() == 0.0  # nothing crosses HW's boundary yet
        before = p.object_mapping()
        with pytest.raises(PartitionError, match="processor 'HW'"):
            pc.try_move("Sub", "HW")
        assert p.object_mapping() == before

    def test_negative_io_budget(self, g):
        g.processors["HW"].io_constraint = -8
        p = build_demo_partition(g)
        with pytest.raises(PartitionError, match="processor 'HW'.*-8"):
            PartitionCost(g, p).cost()

    @pytest.mark.parametrize("limit", [0.0, -1.0])
    def test_non_positive_time_constraint(self, g, limit):
        p = build_demo_partition(g)
        pc = PartitionCost(g, p, time_constraint=limit)
        with pytest.raises(PartitionError, match="time constraint"):
            pc.cost()
        with pytest.raises(PartitionError, match="time constraint"):
            pc.try_move("Sub", "HW")

    def test_greedy_on_vol_with_zero_pin_budget(self):
        """The text format accepts ``io<=0``; greedy must then fail cleanly."""
        from repro.api import build_system
        from repro.core.partition import single_bus_partition
        from repro.core.textfmt import dumps, loads
        from repro.partition.greedy import greedy_improve

        system = build_system("vol")
        system.slif.processors["HW"].io_constraint = 0
        slif = loads(dumps(system.slif))
        assert slif.processors["HW"].io_constraint == 0
        start = single_bus_partition(slif, system.partition.object_mapping())
        with pytest.raises(PartitionError, match="processor 'HW'"):
            greedy_improve(slif, start)

    def test_zero_size_budget_of_a_filled_component(self, g):
        g.processors["HW"].size_constraint = 0
        p = build_demo_partition(g, sub_on="HW")
        with pytest.raises(PartitionError, match="size budget of component 'HW' is 0"):
            PartitionCost(g, p).cost()

    def test_zero_size_budget_reached_by_a_trial_move(self, g):
        g.processors["HW"].size_constraint = 0
        p = build_demo_partition(g)
        pc = PartitionCost(g, p)
        assert pc.cost() == 0.0  # HW is empty
        assert pc.floor() is None  # a trial onto HW raises
        before = (p.object_mapping(), pc.inc.component_sizes())
        with pytest.raises(PartitionError, match="component 'HW'"):
            pc.try_move("Sub", "HW")
        assert (p.object_mapping(), pc.inc.component_sizes()) == before

    @pytest.mark.parametrize("via", ["attribute", "budgets"])
    def test_negative_size_budget(self, g, via):
        p = build_demo_partition(g)
        if via == "attribute":
            g.processors["HW"].size_constraint = -5
            pc = PartitionCost(g, p)
        else:
            pc = PartitionCost(g, p, budgets={"HW": -5})
        with pytest.raises(PartitionError, match="component 'HW' is -5"):
            pc.cost()

    def test_balance_term_divides_by_every_size_budget(self, g):
        g.processors["HW"].size_constraint = 0
        weights = CostWeights(size=0.0, io=0.0, time=0.0, balance=1.0)
        pc = PartitionCost(g, build_demo_partition(g), weights)
        assert pc.floor() is None
        with pytest.raises(PartitionError, match="component 'HW' is 0"):
            pc.cost()

    def test_size_budget_no_term_reads(self, g):
        """Without a size or balance weight, a budget of 0 counts nowhere."""
        g.processors["HW"].size_constraint = 0
        weights = CostWeights(size=0.0, balance=0.0)
        pc = PartitionCost(g, build_demo_partition(g, sub_on="HW"), weights)
        assert (pc.cost(), pc.floor()) == (0.0, 0.0)

    def test_greedy_on_fuzzy_with_zero_size_budget(self):
        """The text format accepts ``size<=0``; greedy must then fail
        cleanly, not drop the budget."""
        from repro.api import build_system
        from repro.core.partition import single_bus_partition
        from repro.core.textfmt import dumps, loads
        from repro.partition.greedy import greedy_improve

        system = build_system("fuzzy")
        system.slif.processors["CPU"].size_constraint = 500
        system.slif.processors["HW"].size_constraint = 0
        slif = loads(dumps(system.slif))
        assert slif.processors["HW"].size_constraint == 0
        start = single_bus_partition(slif, system.partition.object_mapping())
        with pytest.raises(PartitionError, match="component 'HW'"):
            greedy_improve(slif, start)


class TestIncompleteStart:
    """A start with one object or one channel unmapped is refused with
    the partition's own message, with or without a shared compiled
    graph, whichever end of the node order the object sits at."""

    CASES = [
        ("object", "InitRules", "unmapped objects: ['InitRules']"),
        ("object", "alarmcnt", "unmapped objects: ['alarmcnt']"),
        ("channel", "InitRules->Min", "unmapped channels: ['InitRules->Min']"),
        (
            "channel",
            "FuzzyMain->lastout",
            "unmapped channels: ['FuzzyMain->lastout']",
        ),
    ]

    @pytest.mark.parametrize("kind, name, unmapped", CASES)
    @pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
    def test_greedy_and_the_cost_refuse_it(
        self, fuzzy_system, kind, name, unmapped, shared
    ):
        from repro.estimate.compile import compile_graph
        from repro.partition.greedy import greedy_improve

        slif = fuzzy_system.slif
        start = fuzzy_system.partition.copy(name="start")
        if kind == "object":
            start.unassign(name)
        else:
            start.unassign_channel(name)
        compiled = compile_graph(slif) if shared else None
        with pytest.raises(PartitionError) as exc:
            greedy_improve(slif, start, compiled=compiled)
        assert str(exc.value) == f"partition 'greedy' is not proper ({unmapped})"
        with pytest.raises(PartitionError) as exc:
            PartitionCost(slif, start, compiled=compiled)
        assert str(exc.value) == f"partition 'start' is not proper ({unmapped})"
