"""Differential test: warm, forked and fleet sweeps against a fresh one.

A session's sweeps evaluate on its own graph and kernel,
which ``--jobs`` workers inherit when they fork and which a fleet
worker rebuilds from the payload's wire form; each candidate's
synthetic size budgets reach its descent as an override map, never the
graph.  None of that may change an answer.  This draws small
``slif gen`` specs, sometimes with CPU and HW size budgets that bind,
and requires byte-identical fronts (points and rendered text) from:

- a warm session's second sweep (the first compiled its kernel);
- a ``jobs=2`` sweep of that session;
- a sweep on an embedded two-worker fleet (the ``--workers`` wire path);
- ``explore_pareto`` on a freshly built ``DesignSystem`` of the spec.

Afterwards every component's ``size_constraint`` and the session
partition are what they were before the first sweep.  The restart task
is held to the same standard: ``greedy_multistart`` gives the same
result on a warm session's graph at ``jobs`` 1 and 2 as on a fresh one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import WorkerThreads
from repro import api
from repro.api import build_system
from repro.api.types import canonical_json
from repro.fleet import FleetCoordinator
from repro.partition.greedy import greedy_multistart
from repro.synth.gen import GenConfig, generate_text

gen_configs = st.builds(
    GenConfig,
    behaviors=st.integers(2, 60),
    seed=st.integers(0, 2**16),
    concurrency=st.floats(0.0, 1.0),
    depth=st.integers(1, 6),
    variables=st.integers(0, 10),
    ports=st.integers(0, 4),
)


def _bind(slif, share):
    """Cap the CPU and the HW at ``share`` of what every object would
    put on each.  A sweep replaces the CPU budget with its own, so the
    HW one is what its descents read from the graph."""
    if share is not None:
        nodes = list(slif.behaviors.values()) + list(slif.variables.values())
        for name, tech in (("CPU", "proc"), ("HW", "asic")):
            total = sum(node.size.get(tech, default=0.0) for node in nodes)
            slif.processors[name].size_constraint = max(total * share, 1.0)


def _budgets(slif):
    return {
        name: slif.get_component(name).size_constraint
        for name in list(slif.processors) + list(slif.memories)
    }


def _served(result):
    return result.evaluated, canonical_json(result.points), result.text


def _fresh(front):
    points = [
        {
            "hardware_size": p.hardware_size,
            "system_time": p.system_time,
            "label": p.label,
            "mapping": dict(p.mapping),
        }
        for p in front.points
    ]
    return front.evaluated, canonical_json(points), front.render()


@given(
    gen_configs,
    st.none() | st.floats(0.2, 0.9),
    st.integers(1, 3),
    st.integers(0, 2),
    st.integers(0, 1000),
)
@settings(max_examples=10, deadline=None)
def test_warm_forked_and_fleet_sweeps_match_a_fresh_one(
    config, share, steps, starts, seed
):
    text = generate_text(config)
    session = api.load(text)
    _bind(session.slif, share)
    budgets = _budgets(session.slif)
    partition = session.partition
    mapping = partition.object_mapping(), partition.channel_mapping()

    def sweep(jobs=1, fleet=None):
        request = api.ExploreRequest(
            spec=text,
            constraint_steps=steps,
            random_starts=starts,
            seed=seed,
            jobs=jobs,
        )
        return _served(api.explore(request, session=session, fleet=fleet))

    first = sweep()
    warm = sweep()
    forked = sweep(jobs=2)
    with WorkerThreads(FleetCoordinator(), count=2) as workers:
        fleet = sweep(fleet=workers.spec)

    system = build_system(text)
    _bind(system.slif, share)
    fresh = _fresh(
        system.explore(constraint_steps=steps, random_starts=starts, seed=seed)
    )

    assert first == warm == forked == fleet == fresh
    assert _budgets(session.slif) == budgets
    assert session.partition is partition
    assert (partition.object_mapping(), partition.channel_mapping()) == mapping


@given(gen_configs, st.none() | st.floats(0.2, 0.9), st.integers(0, 1000))
@settings(max_examples=5, deadline=None)
def test_multistart_on_a_warm_graph_matches_a_fresh_one(config, share, seed):
    text = generate_text(config)
    session = api.load(text)
    _bind(session.slif, share)
    budgets = _budgets(session.slif)

    def outcome(slif, start, jobs):
        # eight candidates: two chunks, so jobs=2 forks two workers
        result = greedy_multistart(slif, start, starts=7, seed=seed, jobs=jobs)
        return repr(result), result.partition.object_mapping()

    system = build_system(text)
    _bind(system.slif, share)
    fresh = outcome(system.slif, system.partition, 1)
    assert outcome(session.slif, session.partition, 1) == fresh
    assert outcome(session.slif, session.partition, 2) == fresh
    assert _budgets(session.slif) == budgets
