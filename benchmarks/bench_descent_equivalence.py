"""Greedy on a gen-10k spec: the floor exit and read-only move scoring
against the plain loop.

``tests/properties/test_prop_partition.py`` checks both on small graphs.
This runs them once at the scale the explore and open workloads see: a
``slif gen`` spec with 10,000 behaviors and 2,500 variables whose CPU
budget binds, so greedy moves objects to the ASIC until the cost
reaches 0 part-way through a pass.

- Greedy that ends at the floor must be ``repr``-equal to greedy run to
  its confirming pass, with the same mapping and published counters.
- ``PartitionCost.try_move`` must equal, by ``repr``, applying the move,
  evaluating and undoing it on a twin, for a seeded sample of objects
  and every target in each one's pool, with and without a pin budget;
  a random move is committed after each object, so the tallies carry
  the round-trip rounding, and both twins must end with equal tallies.
- ``PartitionCost.best_move``, greedy's per-object call, must equal, by
  ``repr``, the best of a twin's apply/cost/undo over the object's
  candidates, for the same sample, with and without a pin budget; the
  tallies, mapping and evaluation count must match after each object.
- Both move-scoring checks run on the spec's one bus and again on a
  copy of the graph whose every other channel is on a second bus of
  another width, so a cut counted on the wrong bus changes a pin term.
  Each ends in ``verify_consistency`` against the reference estimators.
- The estimator is built from the start's node-ordered mapping, which
  it reads on indices, and from a copy listing the mapping shuffled,
  which it reads name by name, on one bus and on two.  Each then
  commits 1,000 of the moves greedy would choose, on indices
  (``IncrementalEstimator.apply_move``), with its cut counts kept, and
  must pass ``verify_consistency`` after set-up and after every 100.

Both descent times are printed; no timing is asserted.  Run with::

    PYTHONPATH=src python -m pytest -q --benchmark-only -s \\
        benchmarks/bench_descent_equivalence.py
"""

import random
import time
from contextlib import contextmanager

import pytest

from _helpers import floor_exit_disabled, greedy_outcome, move_by_name
from conftest import report
from repro.api import build_system
from repro.core.components import Bus
from repro.partition.cost import PartitionCost
from repro.partition.greedy import greedy_improve
from repro.synth.gen import GenConfig, generate_text

SEED = 1
SAMPLE = 500
#: index commits of the set-up check, verified every COMMITS // 10
COMMITS = 1_000
#: the CPU budget, as a share of the CPU weight of every object
CPU_SHARE = 0.6
#: below one bus width, so any cut channel violates it
PIN_BUDGET = 8
#: the second bus of the two-bus graph
SECOND_BUS = "side"


def build_gen10k():
    system = build_system(generate_text(GenConfig(behaviors=10_000, seed=SEED)))
    slif = system.slif
    total = sum(
        node.size.get("proc")
        for node in list(slif.behaviors.values()) + list(slif.variables.values())
    )
    slif.processors["CPU"].size_constraint = total * CPU_SHARE
    return slif, system.partition


@pytest.fixture(scope="module")
def gen10k():
    return build_gen10k()


@pytest.fixture(scope="module")
def gen10k_two_buses():
    """A graph and start of its own, with every other channel on a second
    bus twice as wide as the first."""
    slif, start = build_gen10k()
    [first] = slif.buses.values()
    slif.add_bus(Bus(SECOND_BUS, bitwidth=2 * first.bitwidth))
    for channel in list(slif.channels)[1::2]:
        start.assign_channel(channel, SECOND_BUS)
    return slif, start


@pytest.fixture(params=["one bus", "two buses"])
def graph(request):
    """The one-bus or the two-bus gen-10k graph and its start."""
    if request.param == "one bus":
        return request.getfixturevalue("gen10k")
    return request.getfixturevalue("gen10k_two_buses")


@contextmanager
def pin_budgets(slif, pins):
    """Give every processor the pin budget ``pins`` for the block."""
    saved = {name: proc.io_constraint for name, proc in slif.processors.items()}
    for proc in slif.processors.values():
        proc.io_constraint = pins
    try:
        yield
    finally:
        for name, budget in saved.items():
            slif.processors[name].io_constraint = budget


def timed(run):
    started = time.perf_counter()
    value = run()
    return value, time.perf_counter() - started


def test_floor_exit_matches_full_passes(benchmark, gen10k):
    slif, start = gen10k
    with floor_exit_disabled():
        full, full_s = timed(lambda: greedy_outcome(slif, start))
    exited, exit_s = timed(lambda: greedy_outcome(slif, start))
    assert full[0] == "value", full
    assert exited == full

    result = benchmark.pedantic(
        lambda: greedy_improve(slif, start), rounds=1, iterations=1
    )
    assert result.cost == 0.0
    benchmark.extra_info["full_seconds"] = full_s
    benchmark.extra_info["exit_seconds"] = exit_s
    report(
        [
            f"greedy / gen-10k: {result.iterations} passes, "
            f"{result.evaluations} evaluations; full passes "
            f"{full_s:.2f} s, ending at the floor {exit_s:.2f} s",
        ]
    )


def _tallies(evaluator):
    inc = evaluator.inc
    return (
        {c: repr(v) for c, v in inc.component_sizes().items()},
        inc.component_ios(),
        evaluator.partition.object_mapping(),
        evaluator.evaluations,
    )


@pytest.mark.parametrize("pins", [None, PIN_BUDGET])
def test_try_move_matches_apply_cost_undo(benchmark, graph, pins):
    slif, start = graph
    with pin_budgets(slif, pins):
        scored = PartitionCost(slif, start.copy())
        reference = PartitionCost(slif, start.copy())
        rng = random.Random(SEED)
        sample = rng.sample(scored.inc.cg.node_names, SAMPLE)

        def check():
            trials = 0
            for obj in sample:
                pool = list(slif.processors) + (
                    [] if obj in slif.behaviors else list(slif.memories)
                )
                for comp in pool:
                    got = scored.try_move(obj, comp)
                    undo = move_by_name(reference.inc, obj, comp)
                    want = reference.cost()
                    reference.inc.undo(*undo)
                    assert repr(got) == repr(want), (obj, comp)
                    trials += 1
                commit = rng.choice(pool)
                move_by_name(scored.inc, obj, commit)
                move_by_name(reference.inc, obj, commit)
            return trials

        trials = benchmark.pedantic(check, rounds=1, iterations=1)
        assert _tallies(scored) == _tallies(reference)
        scored.inc.verify_consistency()
    report(
        [
            f"try_move / gen-10k, {len(slif.buses)} bus(es), pin budget "
            f"{pins}: {trials} trials over {SAMPLE} objects equal "
            "apply/cost/undo",
        ]
    )


@pytest.mark.parametrize("pins", [None, PIN_BUDGET])
def test_best_move_matches_the_best_apply_cost_undo(benchmark, graph, pins):
    slif, start = graph
    with pin_budgets(slif, pins):
        scored = PartitionCost(slif, start.copy())
        reference = PartitionCost(slif, start.copy())
        rng = random.Random(SEED)
        objects = scored.inc.cg.node_names
        sample = sorted(rng.sample(range(len(objects)), SAMPLE))
        names = scored.inc.cg.comp_names

        def candidates(evaluator, node):
            src = evaluator.inc.comp_of[node]
            return [names[c] for c in evaluator.pool(node) if c != src]

        def check():
            bound = scored.cost()
            assert repr(reference.cost()) == repr(bound)
            improved = 0
            for node in sample:
                obj = objects[node]
                cost, comp = scored.best_move(node, bound)
                want, want_comp = bound, None
                for candidate in candidates(reference, node):
                    undo = move_by_name(reference.inc, obj, candidate)
                    value = reference.cost()
                    reference.inc.undo(*undo)
                    if value < want - 1e-12:
                        want, want_comp = value, candidate
                got_comp = names[comp] if comp >= 0 else None
                assert repr((cost, got_comp)) == repr((want, want_comp)), obj
                assert _tallies(scored) == _tallies(reference), obj
                commit = got_comp or rng.choice(candidates(scored, node))
                improved += got_comp is not None
                move_by_name(scored.inc, obj, commit)
                move_by_name(reference.inc, obj, commit)
                bound = scored.cost()
                assert repr(reference.cost()) == repr(bound)
            return improved

        improved = benchmark.pedantic(check, rounds=1, iterations=1)
        assert _tallies(scored) == _tallies(reference)
        scored.inc.verify_consistency()
    report(
        [
            f"best_move / gen-10k, {len(slif.buses)} bus(es), pin budget "
            f"{pins}: {SAMPLE} objects equal the best apply/cost/undo "
            f"({improved} with an improving move)",
        ]
    )


def shuffled(partition, rng):
    """A copy of ``partition`` listing its object mapping in another order."""
    from repro.core.partition import Partition

    items = list(partition.object_mapping().items())
    rng.shuffle(items)
    copy = Partition(partition.slif, partition.name)
    for obj, comp in items:
        copy.assign(obj, comp)
    for channel, bus in partition.channel_mapping().items():
        copy.assign_channel(channel, bus)
    return copy


@pytest.mark.parametrize("order", ["node order", "shuffled order"])
def test_index_commits_keep_the_tallies_consistent(benchmark, graph, order):
    slif, start = graph
    rng = random.Random(SEED)
    partition = start.copy() if order == "node order" else shuffled(start, rng)
    assert (list(partition.object_mapping()) == slif.bv_names()) == (
        order == "node order"
    )
    evaluator = PartitionCost(slif, partition)
    inc = evaluator.inc
    inc.component_ios()  # tally the cut counts, so commits keep them
    inc.verify_consistency()

    def check():
        current = evaluator.cost()
        committed = passes = 0
        while committed < COMMITS and passes < 50:
            passes += 1
            for node in range(inc.cg.n_nodes):
                cost, comp = evaluator.best_move(node, current)
                if comp < 0:
                    continue
                inc.apply_move(node, comp)
                current = cost
                committed += 1
                if committed % (COMMITS // 10) == 0:
                    inc.verify_consistency()
                if committed == COMMITS:
                    break
        return committed

    committed = benchmark.pedantic(check, rounds=1, iterations=1)
    assert committed == COMMITS
    assert inc.stats.moves_applied == COMMITS
    report(
        [
            f"apply_move / gen-10k, {len(slif.buses)} bus(es), start in {order}: "
            f"{committed} greedy moves on indices, consistent every "
            f"{COMMITS // 10}",
        ]
    )
