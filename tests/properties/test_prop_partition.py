"""Property-based tests on the partitioning algorithms.

For arbitrary graphs and starting points: every algorithm returns a
proper partition, never worse than its start, with an honest cost
value (re-evaluating the returned partition reproduces the reported
cost), the read-only move scorer agrees bit for bit with applying,
evaluating and undoing the move, and a greedy descent that ends at the
cost floor answers and counts exactly as one that runs every pass.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import build_system
from repro.core.annotations import WeightMap
from repro.errors import EstimationError
from repro.estimate.size import object_size
from repro.partition import ALGORITHMS, run_algorithm
from repro.partition.cost import CostWeights, PartitionCost
from repro.partition.random_part import random_partition
from repro.synth.gen import GenConfig, generate_text

from _helpers import floor_exit_disabled, greedy_outcome
from test_prop_graph import slif_graphs


def _constrain(g, share=0.6):
    """Give the CPU a constraint that makes the problem non-trivial."""
    total = sum(b.size.get("proc", default=0.0) for b in g.behaviors.values())
    total += sum(v.size.get("proc", default=0.0) for v in g.variables.values())
    g.processors["CPU"].size_constraint = max(total * share, 1.0)
    return g


@given(slif_graphs(), st.integers(0, 100), st.sampled_from(sorted(ALGORITHMS)))
@settings(max_examples=20, deadline=None)
def test_algorithms_return_proper_never_worse(g, seed, algorithm):
    _constrain(g)
    start = random_partition(g, seed=seed)
    start_cost = PartitionCost(g, start.copy()).cost()

    result = run_algorithm(algorithm, g, start, seed=seed)

    assert result.partition.validate() == []
    assert result.cost <= start_cost + 1e-9
    # the reported cost is reproducible from the returned partition
    recomputed = PartitionCost(g, result.partition.copy()).cost()
    assert abs(recomputed - result.cost) < 1e-9
    # the input partition was not mutated (algorithms work on copies)
    assert PartitionCost(g, start.copy()).cost() == start_cost


@given(slif_graphs(), st.integers(0, 100))
@settings(max_examples=15, deadline=None)
def test_greedy_reaches_local_minimum(g, seed):
    """No single move improves a greedy result (the definition of its
    termination condition)."""
    _constrain(g)
    start = random_partition(g, seed=seed)
    result = run_algorithm("greedy", g, start)
    evaluator = PartitionCost(g, result.partition.copy())
    base = evaluator.cost()
    for obj in evaluator.movable_objects():
        for comp in evaluator.candidate_components(obj):
            assert evaluator.try_move(obj, comp) >= base - 1e-9


# ---------------------------------------------------------------------------
# read-only move scoring vs apply -> cost -> undo


def _drop_asic_weight(g, name):
    """Remove the ASIC size weight of object ``name``, if one is named."""
    if name is not None:
        node = g.get_node(name)
        node.size = WeightMap({t: v for t, v in node.size.items() if t != "asic"})


@st.composite
def cost_scenarios(draw):
    """A graph with non-integral weights, random budgets and cost weights.

    Sometimes one object lacks its ASIC weight, so scoring a move of it
    onto ``HW`` must fail the way the reference size estimator fails.
    """
    g = draw(slif_graphs())
    weight = st.floats(0.0, 400.0).map(lambda x: round(x, 3))
    for node in list(g.behaviors.values()) + list(g.variables.values()):
        for tech in ("proc", "asic", "mem"):
            node.size.set(tech, draw(weight))
    for comp in ("CPU", "HW", "RAM"):
        g.get_component(comp).size_constraint = draw(
            st.none() | st.floats(1.0, 1500.0).map(lambda x: round(x, 2))
        )
    for proc in g.processors.values():
        proc.io_constraint = draw(st.none() | st.integers(1, 40))
    _drop_asic_weight(g, draw(st.none() | st.sampled_from(g.bv_names())))
    term = st.sampled_from([0.0, 0.5, 1.0, 3.0])
    weights = CostWeights(
        size=draw(term), io=draw(term), time=draw(term), balance=draw(term)
    )
    time_constraint = draw(st.none() | st.floats(1.0, 1e4))
    return g, weights, time_constraint, draw(st.integers(0, 1000))


def _outcome(fn):
    try:
        return ("value", repr(fn()))
    except EstimationError as exc:
        return ("error", str(exc))


def _reference_try(evaluator, obj, comp):
    record = evaluator.apply_move(obj, comp)
    value = evaluator.cost()
    evaluator.undo(record)
    return value


def _tallies(evaluator):
    inc = evaluator.inc
    return (
        {c: repr(v) for c, v in inc.component_sizes().items()},
        inc.component_ios(),
        evaluator.partition.object_mapping(),
        evaluator.evaluations,
    )


@given(cost_scenarios(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_try_move_matches_apply_cost_undo(scenario, rng):
    """Every read-only score equals, by repr, the cost of applying the
    move, evaluating and undoing it on a twin; afterwards both twins hold
    the same tallies.  Committed moves between rounds let the tallies
    accumulate the round-trip rounding of non-integral weights."""
    g, weights, time_constraint, seed = scenario
    start = random_partition(g, seed=seed)

    def twin():
        return PartitionCost(g, start.copy(), weights, time_constraint)

    built = _outcome(lambda: twin().cost())
    if built[0] == "error":
        # the start mapping itself uses the missing weight
        assert built == _outcome(
            lambda: [object_size(g, o, c) for o, c in start.object_mapping().items()]
        )
        return
    scored, reference = twin(), twin()
    for obj in scored.movable_objects():
        pool = list(g.processors) + (
            [] if obj in g.behaviors else list(g.memories)
        )
        for comp in pool:
            got = _outcome(lambda: scored.try_move(obj, comp))
            want = _outcome(lambda: _reference_try(reference, obj, comp))
            assert got == want, (obj, comp)
            if got[0] == "error":
                assert got == _outcome(lambda: object_size(g, obj, comp))
            assert _tallies(scored) == _tallies(reference)
        commit = rng.choice(pool)
        if _outcome(lambda: object_size(g, obj, commit))[0] == "value":
            scored.apply_move(obj, commit)
            reference.apply_move(obj, commit)
    assert _tallies(scored) == _tallies(reference)
    scored.inc.verify_consistency()


# ---------------------------------------------------------------------------
# greedy ending at the cost floor vs running every pass


@st.composite
def descent_scenarios(draw):
    """A graph, a start and greedy's arguments.

    Either a cost scenario, sometimes with a pin budget of 0, or a small
    ``slif gen`` spec whose CPU budget binds, under the default weights,
    from all on the CPU or a random start, sometimes with one object
    lacking its ASIC weight.
    """
    if draw(st.booleans()):
        g, weights, time_constraint, seed = draw(cost_scenarios())
        zero_pins = draw(st.none() | st.sampled_from(sorted(g.processors)))
        if zero_pins is not None:
            g.processors[zero_pins].io_constraint = 0
        start = random_partition(g, seed=seed)
    else:
        config = GenConfig(
            behaviors=draw(st.integers(2, 40)),
            seed=draw(st.integers(0, 2**16)),
            variables=draw(st.integers(0, 10)),
            ports=draw(st.integers(0, 4)),
        )
        system = build_system(generate_text(config))
        g = _constrain(system.slif, draw(st.floats(0.2, 0.9)))
        _drop_asic_weight(g, draw(st.none() | st.sampled_from(g.bv_names())))
        weights, time_constraint = CostWeights(), None
        seed = draw(st.none() | st.integers(0, 1000))
        start = system.partition if seed is None else random_partition(g, seed=seed)
    kwargs = dict(
        weights=weights,
        time_constraint=time_constraint,
        max_passes=draw(st.integers(1, 4)),
    )
    return g, start, kwargs


@given(descent_scenarios())
@settings(max_examples=60, deadline=None)
def test_floor_exit_matches_full_passes(scenario):
    """Ending a descent at the floor changes no answer, error or counter."""
    g, start, kwargs = scenario
    with floor_exit_disabled():
        full = greedy_outcome(g, start, **kwargs)
    assert greedy_outcome(g, start, **kwargs) == full


# ---------------------------------------------------------------------------
# move scoring on a shared compiled graph, on generated specs


@st.composite
def compiled_scenarios(draw):
    """A small ``slif gen`` spec and a random start on its bus.

    Sometimes a call edge is reversed into a call cycle, one object
    lacks its ASIC size weight, the processors have pin budgets or the
    cost has a time term.
    """
    from repro.core.channels import AccessKind, Channel

    config = GenConfig(
        behaviors=draw(st.integers(2, 30)),
        seed=draw(st.integers(0, 2**16)),
        variables=draw(st.integers(0, 8)),
        ports=draw(st.integers(0, 3)),
    )
    slif = build_system(generate_text(config)).slif
    g = _constrain(slif, draw(st.floats(0.2, 0.9)))
    calls = [ch for ch in g.channels.values() if ch.dst in g.behaviors]
    if calls and draw(st.booleans()):
        call = draw(st.sampled_from(calls))
        back = Channel(f"{call.dst}->{call.src}", call.dst, call.src, AccessKind.CALL)
        g.add_channel(back)
    _drop_asic_weight(g, draw(st.none() | st.sampled_from(g.bv_names())))
    for proc in g.processors.values():
        proc.io_constraint = draw(st.none() | st.integers(1, 40))
    time_constraint = draw(st.none() | st.floats(1.0, 1e4))
    return g, random_partition(g, seed=draw(st.integers(0, 1000))), time_constraint


def _slif_outcome(fn):
    from repro.errors import SlifError

    try:
        return ("value", repr(fn()))
    except SlifError as exc:
        return ("error", type(exc).__name__, str(exc))


@given(compiled_scenarios(), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_try_move_on_the_compiled_graph_matches_apply_cost_undo(scenario, rng):
    """Trial moves scored on a shared compiled graph equal applying,
    costing and undoing them, or fail as the reference lookup fails;
    committed moves keep the tallies consistent."""
    from repro.estimate.compile import compile_graph

    g, start, time_constraint = scenario
    compiled = compile_graph(g)

    def twin(shared):
        return PartitionCost(g, start.copy(), None, time_constraint, shared)

    built = _slif_outcome(lambda: twin(compiled).cost())
    if built[0] == "error":
        assert built == _slif_outcome(lambda: twin(None).cost())
        return
    scored, reference = twin(compiled), twin(None)
    objects = scored.movable_objects()
    for _ in range(20):
        obj = rng.choice(objects)
        comp = rng.choice(scored.candidate_components(obj) or [start.get_bv_comp(obj)])
        got = _slif_outcome(lambda: scored.try_move(obj, comp))
        assert got == _slif_outcome(lambda: _reference_try(reference, obj, comp))
        if got[0] == "error" and got[1] != "RecursionCycleError":
            # only the size lookup can fail: it fails as the reference does
            sizes = [_slif_outcome(lambda c=c: object_size(g, obj, c))
                     for c in (start.get_bv_comp(obj), comp)]
            assert got in sizes
        assert _tallies(scored) == _tallies(reference)
        if got[0] == "value" and rng.random() < 0.5:
            scored.apply_move(obj, comp)
            reference.apply_move(obj, comp)
            scored.inc.verify_consistency()
    assert _tallies(scored) == _tallies(reference)


@given(compiled_scenarios())
@settings(max_examples=25, deadline=None)
def test_greedy_on_a_shared_compiled_graph_matches_its_own(scenario):
    """Passing the graph's compiled form changes no answer, error or
    counter of a descent."""
    from repro.estimate.compile import compile_graph

    g, start, time_constraint = scenario
    own = greedy_outcome(g, start, time_constraint=time_constraint, max_passes=3)
    shared = greedy_outcome(
        g, start, time_constraint=time_constraint, max_passes=3,
        compiled=compile_graph(g),
    )
    assert shared == own
