"""Property-based tests on the partitioning algorithms.

For arbitrary graphs and starting points: every algorithm returns a
proper partition, never worse than its start, with an honest cost
value (re-evaluating the returned partition reproduces the reported
cost), the read-only move scorer agrees bit for bit with applying,
evaluating and undoing the move, a greedy descent that ends at the
cost floor answers and counts exactly as one that runs every pass, and
greedy, group migration and annealing, which move on the compiled
graph's indices through the estimator's ``apply_move``/``undo`` pair,
answer exactly as loops that move by name with ``Partition.move`` and
cost each partition afresh.
"""

import math
import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import build_system
from repro.core.annotations import WeightMap
from repro.core.components import Bus
from repro.errors import EstimationError, SlifError
from repro.estimate.size import object_size
from repro.partition import ALGORITHMS, run_algorithm
from repro.partition.annealing import simulated_annealing
from repro.partition.cost import CostWeights, PartitionCost
from repro.partition.group_migration import group_migration
from repro.partition.random_part import random_partition
from repro.synth.gen import GenConfig, generate_text

from _helpers import floor_exit_disabled, greedy_outcome, move_by_name
from test_prop_graph import slif_graphs


def _constrain(g, share=0.6):
    """Give the CPU a constraint that makes the problem non-trivial."""
    total = sum(b.size.get("proc", default=0.0) for b in g.behaviors.values())
    total += sum(v.size.get("proc", default=0.0) for v in g.variables.values())
    g.processors["CPU"].size_constraint = max(total * share, 1.0)
    return g


def _candidates(g, partition, obj):
    """The components ``obj`` may move to but its own, by name: the
    processors, then for a variable the memories."""
    pool = list(g.processors) + ([] if obj in g.behaviors else list(g.memories))
    return [comp for comp in pool if comp != partition.get_bv_comp(obj)]


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
    for obj in g.bv_names():
        for comp in _candidates(g, evaluator.partition, obj):
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
    """A graph with non-integral weights, random budgets and cost weights,
    a seed for its start and the channels a start puts on a second bus.

    Sometimes one object lacks its ASIC weight, so scoring a move of it
    onto ``HW`` must fail the way the reference size estimator fails.
    Sometimes a second bus of another width carries a drawn subset of
    the channels, so a cut counted on the wrong bus changes an I/O.
    """
    g = draw(slif_graphs())
    rerouted = {}
    if draw(st.booleans()):
        first = g.buses["bus"].bitwidth
        width = draw(st.sampled_from([w for w in (8, 16, 32, 64) if w != first]))
        g.add_bus(Bus("bus2", bitwidth=width))
        rerouted = dict.fromkeys(
            [name for name in g.channels if draw(st.booleans())], "bus2"
        )
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
    return g, weights, time_constraint, draw(st.integers(0, 1000)), rerouted


def _start(g, seed, rerouted):
    """A random start with every channel on the first bus, then the
    ``rerouted`` ones on theirs."""
    start = random_partition(g, seed=seed, bus="bus")
    for channel, bus in rerouted.items():
        start.assign_channel(channel, bus)
    return start


def _outcome(fn):
    try:
        return ("value", repr(fn()))
    except EstimationError as exc:
        return ("error", str(exc))


def _reference_try(evaluator, obj, comp):
    """A trial made the plain way: apply the move with the estimator's
    pair, cost the partition and undo the move."""
    undo = move_by_name(evaluator.inc, obj, comp)
    value = evaluator.cost()
    evaluator.inc.undo(*undo)
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
    g, weights, time_constraint, seed, rerouted = scenario
    start = _start(g, seed, rerouted)

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
    for obj in g.bv_names():
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
            move_by_name(scored.inc, obj, commit)
            move_by_name(reference.inc, obj, commit)
    assert _tallies(scored) == _tallies(reference)
    scored.inc.verify_consistency()


def _reference_best(evaluator, obj, bound):
    """Greedy's per-object choice made the plain way: apply, cost and
    undo each candidate in pool order."""
    best, best_comp = bound, None
    for comp in _candidates(evaluator.slif, evaluator.partition, obj):
        cost = _reference_try(evaluator, obj, comp)
        if cost < best - 1e-12:
            best, best_comp = cost, comp
    return best, best_comp


def _attempt(fn):
    """``("value", result)``, or ``("error", message)`` when a size
    weight is missing."""
    try:
        return "value", fn()
    except EstimationError as exc:
        return "error", str(exc)


def _best_move(evaluator, node, bound):
    """:meth:`PartitionCost.best_move` with the component by name."""
    cost, comp = evaluator.best_move(node, bound)
    return cost, evaluator.inc.cg.comp_names[comp] if comp >= 0 else None


@given(cost_scenarios(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_best_move_matches_the_best_apply_cost_undo(scenario, rng):
    """Greedy's per-object call equals, by repr, the best of a twin's
    apply/cost/undo over the object's candidates, or fails with the same
    error; both twins hold the same tallies, mapping and evaluation
    count after every object.  Each object's best move, or else a random
    candidate, is committed, so the tallies accumulate the round-trip
    rounding of non-integral weights."""
    g, weights, time_constraint, seed, rerouted = scenario
    start = _start(g, seed, rerouted)

    def twin():
        return PartitionCost(g, start.copy(), weights, time_constraint)

    if _outcome(lambda: twin().cost())[0] == "error":
        return  # the start mapping itself uses the missing weight
    scored, reference = twin(), twin()
    bound = scored.cost()
    assert repr(reference.cost()) == repr(bound)
    for node, obj in enumerate(g.bv_names()):
        got = _attempt(lambda: _best_move(scored, node, bound))
        want = _attempt(lambda: _reference_best(reference, obj, bound))
        assert repr(got) == repr(want), obj
        assert _tallies(scored) == _tallies(reference)
        if got[0] == "error":
            continue
        commit = got[1][1]
        if commit is None:
            commit = rng.choice(_candidates(g, scored.partition, obj))
            if _outcome(lambda: object_size(g, obj, commit))[0] == "error":
                continue
        move_by_name(scored.inc, obj, commit)
        move_by_name(reference.inc, obj, commit)
        bound = scored.cost()
        assert repr(reference.cost()) == repr(bound)
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
        g, weights, time_constraint, seed, rerouted = draw(cost_scenarios())
        zero_pins = draw(st.none() | st.sampled_from(sorted(g.processors)))
        if zero_pins is not None:
            g.processors[zero_pins].io_constraint = 0
        start = _start(g, seed, rerouted)
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
    objects = g.bv_names()
    for _ in range(20):
        obj = rng.choice(objects)
        comp = rng.choice(
            _candidates(g, scored.partition, obj) or [start.get_bv_comp(obj)]
        )
        got = _slif_outcome(lambda: scored.try_move(obj, comp))
        assert got == _slif_outcome(lambda: _reference_try(reference, obj, comp))
        if got[0] == "error" and got[1] != "RecursionCycleError":
            # only the size lookup can fail: it fails as the reference does
            sizes = [_slif_outcome(lambda c=c: object_size(g, obj, c))
                     for c in (start.get_bv_comp(obj), comp)]
            assert got in sizes
        assert _tallies(scored) == _tallies(reference)
        if got[0] == "value" and rng.random() < 0.5:
            move_by_name(scored.inc, obj, comp)
            move_by_name(reference.inc, obj, comp)
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


# ---------------------------------------------------------------------------
# greedy, group migration and annealing on indices vs loops that move by name


def _fresh_cost(g, partition, weights, time_constraint):
    """The cost of ``partition`` from a new evaluator, which tallies it
    afresh: no estimator move is made."""
    return PartitionCost(g, partition, weights, time_constraint).cost()


def _fresh_trial(g, working, obj, comp, weights, time_constraint):
    """The cost of ``working`` with ``obj`` moved to ``comp``, from a new
    evaluator; ``working`` is moved back afterwards."""
    src = working.move(obj, comp)
    try:
        return _fresh_cost(g, working, weights, time_constraint)
    finally:
        working.move(obj, src)


def _exact_sums(g):
    """Round every size weight to a multiple of 1/8, so that every sum of
    them is exact: a fresh evaluator's sizes, summed in mapping order,
    then equal the running tallies of a search that moved its way there,
    and the name loops below can be compared with it by ``repr``."""
    for node in list(g.behaviors.values()) + list(g.variables.values()):
        for tech, weight in list(node.size.items()):
            node.size.set(tech, round(weight * 8) / 8)


def _reference_group_migration(g, start, weights, time_constraint, max_passes):
    """Group migration as a loop over names: every candidate of every
    unlocked object costed afresh, the first best taken with
    ``Partition.move``, each evaluation counted."""
    working = start.copy(name="group-migration")
    current = _fresh_cost(g, working, weights, time_constraint)
    evaluations, history, passes = 1, [current], 0
    while passes < max_passes:
        passes += 1
        pass_start_cost = current
        locked, trail = set(), []
        while len(locked) < len(g.bv_names()):
            best = None
            for obj in g.bv_names():
                if obj in locked:
                    continue
                for comp in _candidates(g, working, obj):
                    cost = _fresh_trial(g, working, obj, comp, weights, time_constraint)
                    evaluations += 1
                    if best is None or cost < best[0]:
                        best = (cost, obj, comp)
            if best is None:
                break
            cost, obj, comp = best
            trail.append((obj, working.move(obj, comp), cost))
            locked.add(obj)
            current = cost
        best_idx, best_cost = -1, pass_start_cost
        for idx, (_, _, cost) in enumerate(trail):
            if cost < best_cost - 1e-12:
                best_idx, best_cost = idx, cost
        for obj, src, _ in reversed(trail[best_idx + 1:]):
            working.move(obj, src)
        current = best_cost
        history.append(current)
        if best_idx == -1:
            break
    return working, current, passes, evaluations, history


def _reference_annealing(g, start, weights, time_constraint, seed, schedule):
    """One annealing chain as a loop over names: an object and a target
    drawn from name lists, moved with ``Partition.move``, costed afresh
    and moved back on rejection."""
    rng = random.Random(seed)
    working = start.copy(name="annealing")
    current = best_cost = _fresh_cost(g, working, weights, time_constraint)
    best, history, evaluations = working.copy(), [current], 1
    temperature = schedule["initial_temperature"]
    iterations = 0
    while temperature > schedule["min_temperature"]:
        for _ in range(schedule["moves_per_temperature"]):
            iterations += 1
            obj = rng.choice(g.bv_names())
            candidates = _candidates(g, working, obj)
            if not candidates:
                continue
            src = working.move(obj, rng.choice(candidates))
            cost = _fresh_cost(g, working, weights, time_constraint)
            evaluations += 1
            delta = cost - current
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                current = cost
                if current < best_cost - 1e-12:
                    best_cost, best = current, working.copy()
                    history.append(best_cost)
            else:
                working.move(obj, src)
        temperature *= schedule["cooling"]
    return best, best_cost, iterations, evaluations, history


def _search_outcome(run):
    """``run()``'s ``(partition, cost, iterations, evaluations, history)``
    as a comparable tuple, floats by ``repr``; or the error it raised."""
    try:
        partition, cost, iterations, evaluations, history = run()
    except SlifError as exc:
        return ("error", type(exc).__name__, str(exc))
    return (
        repr(cost),
        repr(history),
        iterations,
        evaluations,
        partition.object_mapping(),
    )


def _result(result):
    return (
        result.partition,
        result.cost,
        result.iterations,
        result.evaluations,
        result.history,
    )


SCHEDULE = dict(
    initial_temperature=1.0, cooling=0.5, moves_per_temperature=12, min_temperature=0.05
)


@given(cost_scenarios(), st.integers(1, 2), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_index_searches_match_their_name_loops(scenario, max_passes, seed):
    """Group migration and an annealing chain give, by ``repr``, the cost
    and history of a loop that moves by name, with the same iterations,
    evaluations and mapping, or fail with the same error."""
    g, weights, time_constraint, start_seed, rerouted = scenario
    _exact_sums(g)
    start = _start(g, start_seed, rerouted)
    args = (g, start, weights, time_constraint)
    assert _search_outcome(
        lambda: _result(group_migration(*args, max_passes=max_passes))
    ) == _search_outcome(lambda: _reference_group_migration(*args, max_passes))
    assert _search_outcome(
        lambda: _result(simulated_annealing(*args, seed=seed, **SCHEDULE))
    ) == _search_outcome(lambda: _reference_annealing(*args, seed, SCHEDULE))


def _reference_greedy(g, start, weights, time_constraint, max_passes):
    """Greedy as a loop over names: each object's candidates costed
    afresh in pool order, the first best taken with ``Partition.move``,
    and the same floor exit, which counts the trials it skips."""
    working = start.copy(name="greedy")
    evaluator = PartitionCost(g, working, weights, time_constraint)
    current, floor = evaluator.cost(), evaluator.floor()
    evaluations, history, passes = 1, [current], 0
    objects = g.bv_names()

    def trials(rest):
        return sum(len(_candidates(g, working, obj)) for obj in rest)

    improved = True
    while improved and passes < max_passes:
        improved = False
        passes += 1
        if current == floor:
            evaluations += trials(objects)
            break
        for i, obj in enumerate(objects):
            best_cost, best_comp = current, None
            for comp in _candidates(g, working, obj):
                cost = _fresh_trial(g, working, obj, comp, weights, time_constraint)
                evaluations += 1
                if cost < best_cost - 1e-12:
                    best_cost, best_comp = cost, comp
            if best_comp is not None:
                working.move(obj, best_comp)
                current = best_cost
                history.append(current)
                improved = True
                if current == floor:
                    evaluations += trials(objects[i + 1:])
                    break
    return working, current, passes, evaluations, history


@given(descent_scenarios())
@settings(max_examples=40, deadline=None)
def test_greedy_index_commits_match_its_name_loop(scenario):
    """Greedy, which scores and commits its moves on indices, gives by
    ``repr`` the cost and history of a loop that moves by name, with the
    same iterations, evaluations and mapping, or fails with the same
    error."""
    from repro.partition.greedy import greedy_improve

    g, start, kwargs = scenario
    _exact_sums(g)
    assert _search_outcome(
        lambda: _result(greedy_improve(g, start, **kwargs))
    ) == _search_outcome(lambda: _reference_greedy(g, start, **kwargs))


def _name_loop_tallies(g, partition, cg):
    """``(sizes, comp_of)`` read from ``partition`` name by name, each
    component's size weights added in mapping order: how the estimator
    read every mapping before it read node-ordered ones on indices."""
    sizes = [0.0] * cg.n_comps
    comp_of = [0] * cg.n_nodes + [-1]
    for obj, comp in partition.object_mapping().items():
        node = cg.node_index[obj]
        c = comp_of[node] = cg.comp_index[comp]
        w = cg.size[node][c]
        sizes[c] += w if w is not None else object_size(g, obj, comp)
    return sizes, comp_of


@st.composite
def setup_scenarios(draw):
    """A small ``slif gen`` spec with non-integral size weights, a
    random start on its one bus or with a drawn subset of its channels
    on a second of another width, pin budgets on or off, and sometimes
    one object lacking its ASIC weight."""
    config = GenConfig(
        behaviors=draw(st.integers(2, 30)),
        seed=draw(st.integers(0, 2**16)),
        variables=draw(st.integers(0, 8)),
        ports=draw(st.integers(0, 3)),
    )
    g = build_system(generate_text(config)).slif
    weight = st.floats(0.0, 400.0).map(lambda x: round(x, 3))
    for node in list(g.behaviors.values()) + list(g.variables.values()):
        for tech in ("proc", "asic"):
            node.size.set(tech, draw(weight))
    start = random_partition(g, seed=draw(st.integers(0, 1000)))
    if draw(st.booleans()):
        [first] = g.buses.values()
        width = draw(st.sampled_from([w for w in (8, 32, 64) if w != first.bitwidth]))
        g.add_bus(Bus("side", bitwidth=width))
        for channel in g.channels:
            if draw(st.booleans()):
                start.assign_channel(channel, "side")
    pins = draw(st.booleans())
    for proc in g.processors.values():
        proc.io_constraint = draw(st.integers(1, 40)) if pins else None
    _drop_asic_weight(g, draw(st.none() | st.sampled_from(g.bv_names())))
    return g, start


def _shuffled(partition, rng):
    """A copy of ``partition`` listing its object mapping in another
    order."""
    from repro.core.partition import Partition

    items = list(partition.object_mapping().items())
    rng.shuffle(items)
    copy = Partition(partition.slif, partition.name)
    for obj, comp in items:
        copy.assign(obj, comp)
    for channel, bus in partition.channel_mapping().items():
        copy.assign_channel(channel, bus)
    return copy


@given(setup_scenarios(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_estimator_setup_matches_the_name_loop(scenario, rng):
    """An estimator built from a node-ordered start, and one built from
    a copy whose mapping is shuffled, hold by ``repr`` the sizes,
    component indices and cut counts of the name loop over their own
    mapping, or fail with its error; index commits then keep the
    tallies consistent, and one that fails changes nothing."""
    from repro.estimate.compile import compile_graph

    g, start = scenario
    cg = compile_graph(g)
    for partition in (start, _shuffled(start, rng)):
        try:
            sizes, comp_of = _name_loop_tallies(g, partition, cg)
        except EstimationError as exc:
            want = ("error", str(exc))
        else:
            bus_of = cg.bus_vector(partition.channel_mapping())
            want = ("value", repr(sizes), comp_of, cg.cut_counts(comp_of, bus_of))
        try:
            evaluator = PartitionCost(g, partition.copy(), compiled=cg)
        except EstimationError as exc:
            assert ("error", str(exc)) == want
            continue
        evaluator.cost()  # tallies the cut counts when a pin budget is set
        inc = evaluator.inc
        got = ("value", repr(inc.sizes), inc.comp_of, inc._cut_counts())
        assert got == want
        for _ in range(25):
            node = rng.randrange(cg.n_nodes)
            targets = [c for c in evaluator.pool(node) if c != inc.comp_of[node]]
            if not targets:
                continue
            before = _tallies(evaluator)
            try:
                inc.apply_move(node, rng.choice(targets))
            except EstimationError:
                assert _tallies(evaluator) == before
        inc.verify_consistency()


# ---------------------------------------------------------------------------
# the one move pair refuses what the legal-target rule rules out


@st.composite
def pair_scenarios(draw):
    """A small ``slif gen`` spec, sometimes with a memory that only its
    variables may move to, and a random start on it."""
    from repro.core.components import Memory, memory_technology

    config = GenConfig(
        behaviors=draw(st.integers(2, 30)),
        seed=draw(st.integers(0, 2**16)),
        variables=draw(st.integers(0, 8)),
        ports=draw(st.integers(0, 3)),
    )
    g = build_system(generate_text(config)).slif
    start = random_partition(g, seed=draw(st.integers(0, 1000)))
    if draw(st.booleans()):
        g.add_memory(Memory("RAM", memory_technology()))
        for variable in g.variables.values():
            variable.size.set("mem", draw(st.integers(0, 100)))
    return g, start


@given(pair_scenarios(), st.data())
@settings(max_examples=40, deadline=None)
def test_the_pair_refuses_an_illegal_move(scenario, data):
    """``apply_move`` or ``undo`` given a target outside the node's pool,
    or a node or component index outside the graph (negative ones
    included), raises PartitionError and changes no size tally,
    component index, cut count, mapping or move count."""
    from repro.errors import PartitionError
    from repro.estimate.incremental import IncrementalEstimator

    g, start = scenario
    inc = IncrementalEstimator(g, start.copy())
    if data.draw(st.booleans()):
        inc.component_ios()  # tally the cut counts, so a move would change them
    cg = inc.cg
    for _ in range(data.draw(st.integers(0, 5))):
        node = data.draw(st.integers(0, cg.n_nodes - 1))
        inc.apply_move(node, data.draw(st.sampled_from(cg.pools[node])))
    processors = len(g.processors)
    outside_nodes = st.integers(max_value=-1) | st.integers(min_value=cg.n_nodes)
    outside_comps = st.integers(max_value=-1) | st.integers(min_value=cg.n_comps)
    moves = [
        st.tuples(outside_nodes, st.integers(0, cg.n_comps - 1)),
        st.tuples(st.integers(0, cg.n_nodes - 1), outside_comps),
    ]
    if cg.n_behaviors and cg.n_comps > processors:
        # a behavior onto a memory
        moves.append(
            st.tuples(
                st.integers(0, cg.n_behaviors - 1),
                st.integers(processors, cg.n_comps - 1),
            )
        )
    node, comp = data.draw(st.one_of(moves))
    method = data.draw(st.sampled_from(["apply_move", "undo"]))

    def state():
        cuts = None if inc._cuts is None else [row[:] for row in inc._cuts]
        stats = (inc.stats.moves_applied, inc.stats.moves_undone)
        return (repr(inc.sizes), list(inc.comp_of), cuts,
                inc.partition.object_mapping(), stats)

    before = state()
    with pytest.raises(PartitionError, match="may not be mapped to component"):
        getattr(inc, method)(node, comp)
    assert state() == before
    inc.verify_consistency()
