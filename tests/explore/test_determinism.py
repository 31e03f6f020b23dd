"""The engine's headline guarantee: ``--jobs`` never changes the answer.

Every test compares parallel runs against the in-process sequential
fallback with ``==`` on the actual floats — byte-identical, not
approximately equal.  The comparison also exercises the plain-dict
graph serialization: workers rebuild the graph from
``slif_to_dict``/``partition_to_dict``, so equality here proves the
round-trip is float-faithful.
"""

import pytest

from repro.core.annotations import WeightMap
from repro.core.components import Bus
from repro.core.serialize import partition_to_dict, slif_to_dict
from repro.errors import EstimationError, SlifError
from repro.explore import ChunkRunner, PlanPayload, WorkPlan, pareto_plan
from repro.partition.pareto import ParetoFront, explore_pareto
from repro.api import build_system


@pytest.fixture(scope="module")
def ether_system():
    system = build_system("ether")
    system.slif.processors["CPU"].size_constraint = 400.0
    return system


def front_signature(front):
    return (
        front.evaluated,
        [
            (p.system_time, p.hardware_size, p.mapping, p.label)
            for p in front.points
        ],
    )


def result_signature(result):
    return (
        result.cost,
        result.algorithm,
        result.iterations,
        result.evaluations,
        result.history,
        result.partition.name,
        result.partition.object_mapping(),
    )


class TestParetoFront:
    @pytest.mark.parametrize("spec", ["ether", "fuzzy"])
    def test_jobs_4_matches_jobs_1(self, spec):
        system = build_system(spec)
        kwargs = dict(constraint_steps=4, random_starts=2, seed=0)
        sequential = explore_pareto(
            system.slif, system.partition, jobs=1, **kwargs
        )
        parallel = explore_pareto(
            system.slif, system.partition, jobs=4, **kwargs
        )
        assert front_signature(parallel) == front_signature(sequential)
        assert parallel.render() == sequential.render()

    def test_merged_front_equals_brute_force(self, fuzzy_system):
        """A chunked+merged sweep equals inserting every candidate one
        by one into a single front, in plan order."""
        slif, start = fuzzy_system.slif, fuzzy_system.partition
        sizes = {"CPU": 0.0}
        from repro.estimate.size import all_component_sizes

        sizes = {"CPU": all_component_sizes(slif, start)["CPU"]}
        plan = pareto_plan(sizes, constraint_steps=3, random_starts=2, seed=0)
        payload = PlanPayload(
            task="pareto",
            slif_data=slif_to_dict(slif),
            partition_data=partition_to_dict(start),
            hardware=("HW",),
        )
        # brute force: one candidate per chunk, fold everything into one
        # front sequentially with no local pruning possible
        runner = ChunkRunner(payload)
        brute = ParetoFront()
        for chunk in WorkPlan(plan.candidates, chunk_size=1).chunks():
            for _, point in runner.run_chunk(chunk).front_points:
                brute.add(point)
        brute.evaluated = len(plan)

        engine = explore_pareto(
            slif, start, constraint_steps=3, random_starts=2, seed=0, jobs=2
        )
        assert front_signature(engine) == front_signature(brute)

    def test_explore_does_not_mutate_the_callers_graph(self, fuzzy_system):
        slif, start = fuzzy_system.slif, fuzzy_system.partition
        before = slif.processors["CPU"].size_constraint
        mapping_before = start.object_mapping()
        explore_pareto(slif, start, constraint_steps=2, random_starts=1, jobs=2)
        assert slif.processors["CPU"].size_constraint == before
        assert start.object_mapping() == mapping_before


class TestMultiStartPartitioners:
    def test_random_restart(self, ether_system):
        from repro.partition.random_part import random_restart

        slif, part = ether_system.slif, ether_system.partition

        sequential = random_restart(slif, part, restarts=8, seed=0, jobs=1)
        parallel = random_restart(slif, part, restarts=8, seed=0, jobs=4)
        assert result_signature(parallel) == result_signature(sequential)

    def test_greedy_multistart(self, ether_system):
        from repro.partition.greedy import greedy_multistart

        slif, part = ether_system.slif, ether_system.partition
        sequential = greedy_multistart(slif, part, starts=4, seed=0, jobs=1)
        parallel = greedy_multistart(slif, part, starts=4, seed=0, jobs=4)
        assert result_signature(parallel) == result_signature(sequential)

    def test_annealing_restarts(self, ether_system):
        from repro.partition.annealing import simulated_annealing

        slif, part = ether_system.slif, ether_system.partition
        kwargs = dict(
            seed=0, restarts=3, initial_temperature=0.5,
            moves_per_temperature=20, min_temperature=1e-2,
        )
        sequential = simulated_annealing(slif, part, jobs=1, **kwargs)
        parallel = simulated_annealing(slif, part, jobs=4, **kwargs)
        assert result_signature(parallel) == result_signature(sequential)

    def test_single_chain_annealing_unchanged_by_jobs_path(self, ether_system):
        """One chain runs in process whatever ``jobs`` says, so
        ``jobs=2`` gives the ``jobs=1`` chain."""
        from repro.partition.annealing import simulated_annealing

        slif, part = ether_system.slif, ether_system.partition
        kwargs = dict(
            seed=3, initial_temperature=0.5,
            moves_per_temperature=20, min_temperature=1e-2,
        )
        plain = simulated_annealing(slif, part, restarts=1, jobs=1, **kwargs)
        engine = simulated_annealing(slif, part, restarts=1, jobs=2, **kwargs)
        assert engine.cost == plain.cost
        assert (
            engine.partition.object_mapping() == plain.partition.object_mapping()
        )


def error_of(search, *args, **kwargs):
    with pytest.raises(SlifError) as info:
        search(*args, **kwargs)
    return type(info.value), str(info.value)


class TestErrorsDoNotDependOnJobs:
    """A search's code path depends only on the algorithm and its own
    parameters, so an input it cannot search fails the same way at any
    ``jobs`` and with a checkpoint."""

    def test_random_restart_on_two_buses(self):
        from repro.partition.random_part import random_restart

        system = build_system("fuzzy")
        system.slif.add_bus(Bus("bus2", bitwidth=8, ts=0.1, td=1.0))
        errors = [
            error_of(
                random_restart, system.slif, system.partition, restarts=3, jobs=jobs
            )
            for jobs in (1, 2)
        ]
        assert errors[0] == errors[1]
        assert "graph has 2 buses; specify which to use" in errors[0][1]

    def test_single_chain_annealing_without_a_size_weight(self, tmp_path):
        from repro.partition.annealing import simulated_annealing

        system = build_system("vol")
        main = system.slif.get_node("VolMain")
        main.size = WeightMap({"proc": main.size["proc"]})   # no asic weight
        kwargs = dict(seed=0, moves_per_temperature=5, cooling=0.5)
        errors = [
            error_of(
                simulated_annealing, system.slif, system.partition, **kwargs, **run
            )
            for run in (
                {"jobs": 1},
                {"jobs": 2},
                {"checkpoint": str(tmp_path / "chain.jsonl")},
            )
        ]
        assert errors[0] == errors[1] == errors[2]
        assert errors[0][0] is EstimationError
