"""Unit tests for the partitioning algorithms.

The constrained scenario used below: CPU too small for everything, so a
feasible partition must offload to the ASIC — every real algorithm must
find cost 0, and never return something worse than its starting point.
"""

import pytest

from repro.partition import ALGORITHMS, run_algorithm
from repro.partition.annealing import simulated_annealing
from repro.partition.cost import PartitionCost
from repro.partition.greedy import greedy_improve
from repro.partition.group_migration import group_migration
from repro.partition.random_part import draw_choices, random_partition, random_restart
from repro.errors import EstimationError, PartitionError

from _helpers import build_demo_graph, build_demo_partition, floor_exit_disabled


def constrained_graph():
    g = build_demo_graph()
    g.processors["CPU"].size_constraint = 150  # Main+Sub+flag = 181 won't fit
    return g


@pytest.fixture
def g():
    return constrained_graph()


@pytest.fixture
def p(g):
    return build_demo_partition(g)


class TestGreedy:
    def test_reaches_feasibility(self, g, p):
        result = greedy_improve(g, p)
        assert result.cost == 0.0
        assert result.partition.validate() == []

    def test_does_not_mutate_input(self, g, p):
        before = p.object_mapping()
        greedy_improve(g, p)
        assert p.object_mapping() == before

    def test_never_worse_than_start(self, g, p):
        from repro.partition.cost import PartitionCost

        start_cost = PartitionCost(g, p.copy()).cost()
        assert greedy_improve(g, p).cost <= start_cost

    def test_history_monotone(self, g, p):
        result = greedy_improve(g, p)
        assert all(
            a >= b for a, b in zip(result.history, result.history[1:])
        )

    def test_counts_evaluations(self, g, p):
        result = greedy_improve(g, p)
        assert result.evaluations > 0
        assert result.iterations >= 1


class TestFloorExit:
    """A descent that reaches cost 0 stops scoring trials but reports the
    passes and evaluations the full loop makes.

    On the demo graph a pass offers 6 trials: 1 each for the behaviors
    ``Main`` and ``Sub`` (CPU or HW) and 2 each for the variables ``buf``
    and ``flag`` (CPU, HW or RAM, less their own).
    """

    PASS = 6

    @staticmethod
    def _descend(g, p, monkeypatch, **kwargs):
        """Greedy with the exit, the trials it scored, and greedy without it."""
        scored = []
        score_move = PartitionCost.score_move

        def counted(self, node, src, dst):
            scored.append(self.inc.cg.node_names[node])
            return score_move(self, node, src, dst)

        with floor_exit_disabled():
            full = greedy_improve(g, p, **kwargs)
        monkeypatch.setattr(PartitionCost, "score_move", counted)
        result = greedy_improve(g, p, **kwargs)
        assert repr(result) == repr(full)
        assert result.partition.object_mapping() == full.partition.object_mapping()
        return result, scored

    def test_start_at_zero_scores_nothing(self, monkeypatch):
        g = build_demo_graph()
        result, scored = self._descend(g, build_demo_partition(g), monkeypatch)
        assert result.cost == 0.0
        assert result.iterations == 1
        assert result.evaluations == 1 + self.PASS
        assert scored == []

    def test_zero_mid_pass_adds_the_confirming_pass(self, g, p, monkeypatch):
        # moving Main, the first object, to HW fits the CPU
        result, scored = self._descend(g, p, monkeypatch)
        assert scored == ["Main"]
        assert result.history[-1] == 0.0
        assert result.iterations == 2
        assert result.evaluations == 1 + 2 * self.PASS

    def test_zero_in_the_last_pass_adds_none(self, g, p, monkeypatch):
        result, scored = self._descend(g, p, monkeypatch, max_passes=1)
        assert scored == ["Main"]
        assert result.iterations == 1
        assert result.evaluations == 1 + self.PASS

    def test_zero_on_the_last_object(self, monkeypatch):
        # the CPU is over by less than flag's weight; HW cannot take
        # Main (900), Sub (400) or buf (768), so only flag fits it
        g = build_demo_graph()
        g.processors["CPU"].size_constraint = 180.5
        g.processors["HW"].size_constraint = 300
        result, scored = self._descend(g, build_demo_partition(g), monkeypatch)
        assert scored == ["Main", "Sub", "buf", "buf", "flag", "flag"]
        assert result.partition.get_bv_comp("flag") == "HW"
        assert result.iterations == 2
        assert result.evaluations == 1 + 2 * self.PASS

    def test_missing_weight_still_raises(self):
        """No move from cost 0 improves, but a trial move onto a
        component without a weight must still raise."""
        from repro.api import build_system
        from repro.core.annotations import WeightMap

        system = build_system("vol")
        node = system.slif.get_node("VolMain")
        node.size = WeightMap({t: v for t, v in node.size.items() if t != "asic"})
        with pytest.raises(EstimationError, match="'asic'"):
            greedy_improve(system.slif, system.partition)


class TestGroupMigration:
    def test_reaches_feasibility(self, g, p):
        result = group_migration(g, p)
        assert result.cost == 0.0

    def test_escapes_where_greedy_can_climb(self, g, p):
        # group migration accepts worsening moves inside a pass; at the
        # very least it must match greedy on this small instance
        gm = group_migration(g, p)
        gr = greedy_improve(g, p)
        assert gm.cost <= gr.cost + 1e-9

    def test_partition_stays_proper(self, g, p):
        result = group_migration(g, p)
        assert result.partition.validate() == []


class TestAnnealing:
    def test_reaches_feasibility(self, g, p):
        result = simulated_annealing(g, p, seed=3)
        assert result.cost == 0.0

    def test_deterministic_given_seed(self, g, p):
        a = simulated_annealing(g, p, seed=7)
        b = simulated_annealing(g, p, seed=7)
        assert a.cost == b.cost
        assert a.partition.object_mapping() == b.partition.object_mapping()

    def test_best_snapshot_not_last_state(self, g, p):
        result = simulated_annealing(g, p, seed=1)
        # the returned partition must actually achieve the reported cost
        from repro.partition.cost import PartitionCost

        assert PartitionCost(g, result.partition).cost() == pytest.approx(
            result.cost
        )


class TestRandom:
    def test_random_partition_is_proper(self, g):
        part = random_partition(g, seed=5)
        assert part.validate() == []

    def test_random_partition_deterministic(self, g):
        assert (
            random_partition(g, seed=5).object_mapping()
            == random_partition(g, seed=5).object_mapping()
        )

    def test_different_seeds_differ(self, g):
        maps = {
            tuple(sorted(random_partition(g, seed=s).object_mapping().items()))
            for s in range(10)
        }
        assert len(maps) > 1

    def test_restart_keeps_best(self, g, p):
        result = random_restart(g, p, restarts=30, seed=0)
        from repro.partition.cost import PartitionCost

        assert PartitionCost(g, result.partition).cost() == pytest.approx(
            result.cost
        )

    def test_requires_processor(self):
        from repro.core import SlifBuilder

        g = SlifBuilder("x").process("P").bus("b").build()
        with pytest.raises(PartitionError):
            random_partition(g)

    @pytest.mark.parametrize("size", range(1, 10))
    def test_draws_are_random_choice_draws(self, size):
        """Every seeded start depends on draw_choices repeating
        Random.choice draw for draw, and leaving the generator where
        choice would."""
        import random

        pool = [f"c{i}" for i in range(size)]
        for seed in range(60):
            ours, theirs = random.Random(seed), random.Random(seed)
            count = 1 + seed % 40
            assert draw_choices(ours, pool, count) == [
                theirs.choice(pool) for _ in range(count)
            ]
            assert ours.getstate() == theirs.getstate()

    def test_no_draws_from_an_empty_pool(self):
        import random

        rng = random.Random(0)
        assert draw_choices(rng, [], 0) == []
        with pytest.raises(IndexError):
            draw_choices(rng, [], 1)
        with pytest.raises(IndexError):
            rng.choice([])


#: every algorithm once, and annealing again with several chains
EVERY_ALGORITHM = [pytest.param(name, {}, id=name) for name in sorted(ALGORITHMS)] + [
    pytest.param("annealing", {"restarts": 2}, id="annealing-chains")
]


class TestDispatcher:
    def test_all_algorithms_registered(self):
        assert set(ALGORITHMS) == {
            "greedy",
            "greedy_multistart",
            "group_migration",
            "annealing",
            "clustering",
            "random",
        }

    def test_run_algorithm(self, g, p):
        result = run_algorithm("greedy", g, p)
        assert result.algorithm == "greedy"

    def test_unknown_algorithm_rejected(self, g, p):
        with pytest.raises(PartitionError, match="unknown"):
            run_algorithm("magic", g, p)

    def test_all_algorithms_beat_or_match_start(self, g, p):
        from repro.partition.cost import PartitionCost

        start = PartitionCost(g, p.copy()).cost()
        for name in ALGORITHMS:
            result = run_algorithm(name, g, p, seed=0)
            assert result.cost <= start + 1e-9, name
            assert result.partition.validate() == [], name

    @pytest.mark.parametrize("name, extra", EVERY_ALGORITHM)
    def test_reported_cost_honours_budgets(self, fuzzy_system, name, extra):
        budgets = {"CPU": 500}   # fuzzy's all-software CPU size is 1,333
        slif = fuzzy_system.slif
        result = run_algorithm(
            name, slif, fuzzy_system.partition, budgets=budgets, **extra
        )
        recost = PartitionCost(slif, result.partition, budgets=budgets)
        assert result.cost == pytest.approx(recost.cost())

    @pytest.mark.parametrize("name, extra", EVERY_ALGORITHM)
    def test_budget_naming_no_component_is_rejected(self, fuzzy_system, name, extra):
        """A misspelt budget key fails before any search instead of
        leaving the search unconstrained."""
        with pytest.raises(PartitionError, match="budgets name no component.*'CUP'"):
            run_algorithm(
                name, fuzzy_system.slif, fuzzy_system.partition,
                budgets={"CUP": 500}, **extra,
            )


class TestTelemetry:
    """Searches count evaluations locally and publish them once."""

    @staticmethod
    def _counters(run):
        from repro import obs

        obs.reset()
        obs.enable()
        try:
            result = run()
            return result, obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()

    @pytest.mark.parametrize("algorithm", [greedy_improve, group_migration])
    def test_published_evaluations_match_result(self, g, p, algorithm):
        result, counters = self._counters(lambda: algorithm(g, p))
        assert result.evaluations > 1
        assert counters["partition.cost.evaluations"] == result.evaluations

    def test_greedy_applies_only_committed_moves(self, g, p):
        result, counters = self._counters(lambda: greedy_improve(g, p))
        committed = len(result.history) - 1
        assert committed > 0
        assert counters["estimate.incremental.moves_applied"] == committed
        assert "estimate.incremental.moves_undone" not in counters

    @pytest.mark.parametrize("timed", [False, True], ids=["untimed", "timed"])
    @pytest.mark.parametrize("name, extra", EVERY_ALGORITHM)
    def test_every_search_moves_through_the_pair(
        self, fuzzy_system, monkeypatch, name, extra, timed
    ):
        """Every move a search makes or rolls back goes through
        ``IncrementalEstimator.apply_move`` or ``undo``: their calls are
        the published move counts, with a time term on or off."""
        from repro.estimate.exectime import ExecTimeEstimator
        from repro.estimate.incremental import IncrementalEstimator

        calls = dict.fromkeys(["apply_move", "undo"], 0)
        for method in calls:
            def counted(inc, node, comp, _method=method,
                        _move=getattr(IncrementalEstimator, method)):
                calls[_method] += 1
                return _move(inc, node, comp)

            monkeypatch.setattr(IncrementalEstimator, method, counted)
        slif, start = fuzzy_system.slif, fuzzy_system.partition
        time_constraint = None
        if timed:
            # each timed trial runs Eq. 1 afresh: a short annealing
            # schedule keeps the run quick (the others ignore it)
            time_constraint = ExecTimeEstimator(slif, start).system_time() / 2
            extra = dict(extra, cooling=0.5)
        _, counters = self._counters(
            lambda: run_algorithm(
                name, slif, start, budgets={"CPU": 500},
                time_constraint=time_constraint, **extra,
            )
        )
        assert calls == {
            "apply_move": counters.get("estimate.incremental.moves_applied", 0),
            "undo": counters.get("estimate.incremental.moves_undone", 0),
        }
        if name == "greedy":
            assert calls["apply_move"] > 0

    def test_annealing_counters_add_up(self, g, p):
        result, counters = self._counters(
            lambda: simulated_annealing(g, p, seed=3)
        )
        assert counters["partition.cost.evaluations"] == result.evaluations
        assert counters["partition.annealing.iterations"] == result.iterations
        assert (
            counters["partition.annealing.accepted"]
            + counters["partition.annealing.rejected"]
            == result.iterations
        )
