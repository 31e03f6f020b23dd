"""Behavior of the five facade functions against the underlying modules."""

import pytest

import _golden
from _helpers import overflowing_synth_document
from repro import api
from repro.core.channels import FreqMode
from repro.errors import EstimationError, SlifError


@pytest.fixture(scope="module")
def vol_session():
    return api.load("vol")


class TestLoad:
    def test_load_bundled(self, vol_session):
        assert vol_session.spec_name == "vol"
        assert vol_session.slif.name == "vol"
        assert vol_session.partition.is_complete()

    def test_load_unknown_spec(self):
        with pytest.raises(SlifError, match="neither a bundled benchmark"):
            api.load("definitely-not-a-spec")

    def test_load_path(self, tmp_path):
        source = tmp_path / "tiny.vhd"
        source.write_text(
            """entity T is port ( a : in integer ); end;
            Main: process
                variable v : integer;
            begin
                v := a;
                wait;
            end process;"""
        )
        session = api.load(str(source))
        assert session.spec_name == "tiny"
        assert session.slif.num_bv > 0

    def test_session_key_is_content_addressed(self, vol_session):
        assert vol_session.key == api.session_key("vol")
        assert api.session_key("vol") != api.session_key("fuzzy")
        # same content hash across separately-built sessions
        assert api.load("vol").key == vol_session.key

    def test_load_span_covers_spec_resolution(self, monkeypatch):
        import time

        from repro import obs
        from repro.api.frontends import FRONTENDS
        from repro.synth.gen import GenConfig, generate_text

        spec = generate_text(GenConfig(behaviors=2, seed=0))   # builds in ~1 ms
        resolve = FRONTENDS.resolve

        def slow_resolve(spec):
            time.sleep(0.02)
            return resolve(spec)

        monkeypatch.setattr(FRONTENDS, "resolve", slow_resolve)
        obs.reset()
        obs.enable()
        try:
            session = api.load(spec)
            [load] = [s for s in obs.TRACER.spans() if s.name == "api.load"]
        finally:
            obs.disable()
            obs.reset()
        assert load.duration >= 0.02
        assert load.attributes == {
            "spec": session.spec_name,
            "session_key": session.key,
        }


class TestEstimate:
    def test_matches_direct_estimator(self, vol_session):
        from repro.estimate.engine import Estimator

        result = api.estimate("vol", session=vol_session)
        report = Estimator(vol_session.slif, vol_session.partition).report()
        assert result.render() == report.render()
        assert result.system_time == report.system_time
        assert result.component_sizes == report.component_sizes
        assert result.graph_key == vol_session.key

    def test_accepts_request_dict_and_string(self, vol_session):
        by_str = api.estimate("vol", session=vol_session)
        by_req = api.estimate(api.EstimateRequest(spec="vol"), session=vol_session)
        by_dict = api.estimate({"spec": "vol"}, session=vol_session)
        assert by_str == by_req == by_dict

    def test_mode_changes_result(self, vol_session):
        avg = api.estimate({"spec": "vol", "mode": "avg"}, session=vol_session)
        max_ = api.estimate({"spec": "vol", "mode": "max"}, session=vol_session)
        assert max_.system_time >= avg.system_time

    def test_bad_request_type(self):
        with pytest.raises(api.RequestError, match="expected EstimateRequest"):
            api.estimate(42)

    def test_session_not_mutated(self, vol_session):
        before = vol_session.partition.object_mapping()
        api.estimate("vol", session=vol_session)
        assert vol_session.partition.object_mapping() == before


class TestOneEstimatePath:
    """Every facade estimate is scored on the session's kernel; the
    reference estimator runs only for the items the kernel abstains
    from, and raises its precise error there."""

    @staticmethod
    def counters(run):
        """Counters of ``run()``, plus how many reference reports it made."""
        from repro import obs

        obs.reset()
        obs.enable()
        try:
            run()
            counters = dict(obs.snapshot()["counters"])
            counters["reference reports"] = sum(
                1
                for span in obs.TRACER.spans()
                if span.name == "estimate.report" and "kernel" not in span.attributes
            )
            return counters
        finally:
            obs.disable()
            obs.reset()

    @staticmethod
    def session_of(slif, partition):
        from repro.api.session import DesignSystem, Session

        return Session(DesignSystem(slif, partition), key="k", spec_name=slif.name)

    def test_estimate_is_a_one_item_kernel_batch(self):
        session = api.load("vol")
        counters = self.counters(lambda: api.estimate("vol", session=session))
        assert counters["kernel.compiles"] == 1
        assert counters["kernel.batches"] == 1
        assert counters["kernel.candidates"] == 1
        assert counters["reference reports"] == 0

    def test_six_pairs_and_a_partition_report_share_one_compile(self, vol_session):
        pairs = [
            {"spec": "vol", "mode": mode, "concurrent": concurrent}
            for mode in ("avg", "min", "max")
            for concurrent in (False, True)
        ]

        def run():
            api.estimate_many(pairs, session=vol_session)
            api.partition(
                api.PartitionRequest(spec="vol", algorithm="random", seed=1),
                session=vol_session,
            )

        counters = self.counters(run)
        assert counters.get("kernel.compiles", 0) == 0  # compiled earlier
        assert counters["kernel.batches"] == 2
        assert counters["kernel.candidates"] == 7
        assert counters["reference reports"] == 0

    def test_abstained_item_raises_the_reference_error(self):
        from repro.core import SlifBuilder
        from repro.core.partition import single_bus_partition
        from repro.errors import EstimationError

        slif = (
            SlifBuilder("nw")
            .process("Main", ict={"proc": 5.0}, size={"proc": 10})
            .processor("CPU", "proc")
            .asic("HW", "asic")
            .bus("b", bitwidth=16, ts=0.1, td=1.0)
            .build()
        )
        session = self.session_of(
            slif, single_bus_partition(slif, {"Main": "HW"}, name="hw")
        )
        assert session.kernel() is not None
        with pytest.raises(EstimationError, match="no weight recorded"):
            api.estimate("nw", session=session)
        with pytest.raises(EstimationError, match="no weight recorded"):
            api.estimate_many(["nw"], session=session)

    def test_graph_without_a_kernel_runs_on_the_reference(self):
        from repro.core import SlifBuilder
        from repro.core.partition import single_bus_partition
        from repro.errors import RecursionCycleError
        from repro.estimate.engine import Estimator

        slif = (
            SlifBuilder("cycle")
            .process("A", ict={"proc": 1.0}, size={"proc": 1})
            .procedure("B", ict={"proc": 1.0}, size={"proc": 1})
            .call("A", "B", freq=1)
            .call("B", "A", freq=1)
            .processor("CPU", "proc")
            .bus("b", bitwidth=16, ts=0.1, td=1.0)
            .build()
        )
        session = self.session_of(
            slif, single_bus_partition(slif, {"A": "CPU", "B": "CPU"}, name="c")
        )
        items = [
            (session.partition, mode, concurrent)
            for mode in FreqMode
            for concurrent in (False, True)
        ]
        assert session.kernel().reports(items) == [None] * len(items)
        with pytest.raises(RecursionCycleError) as reference:
            Estimator(slif, session.partition).report()
        with pytest.raises(RecursionCycleError) as got:
            api.estimate("cycle", session=session)
        assert str(got.value) == str(reference.value)


class TestPartition:
    def test_matches_run_algorithm(self, vol_session):
        from repro.partition import run_algorithm

        result = api.partition(
            api.PartitionRequest(spec="vol", algorithm="greedy", seed=0),
            session=vol_session,
        )
        direct = run_algorithm(
            "greedy", vol_session.slif, vol_session.partition.copy(), seed=0
        )
        assert result.cost == direct.cost
        assert result.evaluations == direct.evaluations
        assert result.mapping == direct.partition.object_mapping()
        assert result.summary() == str(direct)

    def test_session_partition_untouched(self, vol_session):
        before = vol_session.partition.object_mapping()
        api.partition(
            api.PartitionRequest(spec="vol", algorithm="random", seed=1),
            session=vol_session,
        )
        assert vol_session.partition.object_mapping() == before

    def test_estimate_attached(self, vol_session):
        result = api.partition(
            api.PartitionRequest(spec="vol", algorithm="greedy"),
            session=vol_session,
        )
        assert result.estimate is not None
        assert result.estimate.system_time > 0
        assert result.estimate.partition_name == result.partition_name


class TestSimulate:
    def test_matches_direct_simulation(self, vol_session):
        from repro.sim import SimConfig, simulate

        result = api.simulate(
            api.SimulateRequest(spec="vol", seed=0, iterations=2),
            session=vol_session,
        )
        direct = simulate(
            vol_session.slif,
            vol_session.partition,
            config=SimConfig(seed=0, iterations=2),
        )
        assert result.events == direct.events
        assert result.end_time == direct.end_time
        assert result.text == direct.render()

    def test_validation_mode(self, vol_session):
        result = api.simulate(
            api.SimulateRequest(spec="vol", seed=0, iterations=2, validate=True),
            session=vol_session,
        )
        assert result.validation is not None
        assert result.validation["speedup"] > 0
        assert any(
            row["metric"] == "exectime" and row["name"] == "<system>"
            for row in result.validation["rows"]
        )


class TestExplore:
    def test_matches_explore_pareto(self, vol_session):
        from repro.partition.pareto import explore_pareto

        result = api.explore(
            api.ExploreRequest(
                spec="vol", constraint_steps=2, random_starts=1, seed=0
            ),
            session=vol_session,
        )
        direct = explore_pareto(
            vol_session.slif,
            vol_session.partition,
            constraint_steps=2,
            random_starts=1,
            seed=0,
        )
        assert result.evaluated == direct.evaluated
        assert result.text == direct.render()
        assert len(result.points) == len(direct.points)
        for got, expected in zip(result.points, direct.points):
            assert got["hardware_size"] == expected.hardware_size
            assert got["system_time"] == expected.system_time
            assert got["mapping"] == dict(expected.mapping)

    def test_fresh_session_equals_shared_session(self):
        request = api.ExploreRequest(
            spec="vol", constraint_steps=2, random_starts=1, seed=0
        )
        assert api.explore(request) == api.explore(request, session=api.load("vol"))


class TestNonFiniteAnswers:
    """Finite inputs whose estimate overflows raise
    :class:`~repro.errors.EstimationError` naming the metric: JSON, the
    served form of every answer, has no NaN or Infinity."""

    MESSAGE = "is inf, not a finite number"

    @pytest.mark.parametrize("concurrent", [False, True])
    def test_estimate(self, concurrent):
        request = {"spec": overflowing_synth_document(), "concurrent": concurrent}
        with pytest.raises(EstimationError, match=f"^system time .* {self.MESSAGE}"):
            api.estimate(request)

    def test_partition(self):
        request = {"spec": overflowing_synth_document(), "algorithm": "greedy"}
        with pytest.raises(EstimationError, match=f"^system time .* {self.MESSAGE}"):
            api.partition(request)

    def test_explore(self):
        with pytest.raises(
            EstimationError, match=f"^system time of design point .* {self.MESSAGE}"
        ):
            api.explore(overflowing_synth_document())


def test_top_level_reexport_does_not_warn():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        from repro import DesignSystem, build_system  # noqa: F401


class TestCallCycleAnswers:
    """A graph with a call cycle compiles and its kernel abstains, so the
    reference path answers: estimates, an explore sweep and greedy
    descents give the pinned values or raise the pinned
    :class:`~repro.errors.RecursionCycleError`.  The cycle either lies
    on the process's call tree or hangs behind a procedure no process
    reaches."""

    CYCLE = "recursive access cycle in SLIF graph: "
    ON_TREE = CYCLE + "b00000 -> b00002 -> b00000"
    BEHIND = CYCLE + "cycle_b -> cycle_a -> cycle_b"
    EXPECTED = {
        "on the call tree": {
            "estimate": ("error", "RecursionCycleError", ON_TREE),
            "explore": (
                "error",
                "WorkerError",
                "candidate 'start' (index 0, chunk 0) failed: "
                "RecursionCycleError: " + ON_TREE,
            ),
            "partition": ("error", "RecursionCycleError", ON_TREE),
            "greedy": ("value", "0.06666666666666667", 2, 31, "fe64378c2ffcbf81"),
            "timed greedy": ("error", "RecursionCycleError", ON_TREE),
        },
        "behind a procedure": {
            "estimate": ("error", "RecursionCycleError", BEHIND),
            "explore": ("value", "6277cb82dfa2f734"),
            "partition": ("error", "RecursionCycleError", BEHIND),
            "greedy": ("value", "0.06666666666666667", 2, 35, "8b36dd2bfb445e90"),
            "timed greedy": (
                "value", "1473.4656266666668", 2, 35, "e76b18007ef6d038"
            ),
        },
    }

    @staticmethod
    def cycle_session(where):
        from repro.api.session import DesignSystem, Session
        from repro.core.channels import AccessKind, Channel
        from repro.core.nodes import Behavior
        from repro.core.partition import single_bus_partition
        from repro.synth.gen import GenConfig, generate_text

        slif = api.load(generate_text(GenConfig(behaviors=12, seed=5))).slif
        if where == "on the call tree":
            call = next(c for c in slif.channels.values() if c.dst in slif.behaviors)
            a, b = call.dst, call.src
        else:
            a, b = "cycle_a", "cycle_b"
            for name in (a, b):
                weights = {"proc": 1.0, "asic": 1.0}
                slif.add_behavior(Behavior(name, ict=weights, size=weights))
            slif.add_channel(Channel(f"{b}->{a}", b, a, kind=AccessKind.CALL))
        slif.add_channel(Channel(f"{a}->{b}", a, b, kind=AccessKind.CALL))
        start = single_bus_partition(
            slif, dict.fromkeys(slif.bv_names(), "CPU"), name="start"
        )
        return Session(DesignSystem(slif, start), key="k", spec_name=slif.name)

    @staticmethod
    def outcome(fn):
        try:
            value = fn()
        except SlifError as exc:
            return ("error", type(exc).__name__, str(exc))
        if hasattr(value, "evaluations"):  # a search result
            return (
                "value",
                repr(value.cost),
                value.iterations,
                value.evaluations,
                _golden.digest(value.partition.object_mapping()),
            )
        return ("value", _golden.digest(value))

    @pytest.mark.parametrize("where", sorted(EXPECTED))
    def test_answers_are_unchanged(self, where):
        from repro.partition import run_algorithm

        session = self.cycle_session(where)
        slif, start = session.slif, session.partition
        items = [(start, FreqMode.AVG, False)]
        assert session.kernel().reports(items) == [None]
        assert session.kernel().evaluate([(start, "start")], ["HW"]) == [None]
        outcome = self.outcome
        got = {
            "estimate": outcome(lambda: api.estimate(
                api.EstimateRequest(spec=slif.name, concurrent=True),
                session=session,
            ).to_dict()),
            "explore": outcome(lambda: api.explore(
                api.ExploreRequest(spec=slif.name, constraint_steps=2, random_starts=1),
                session=session,
            ).points),
        }
        with _golden.constrained(session):
            got["partition"] = outcome(lambda: api.partition(
                api.PartitionRequest(spec=slif.name, algorithm="greedy"),
                session=session,
            ).to_dict())
            got["greedy"] = outcome(lambda: run_algorithm(
                "greedy", slif, start.copy(), compiled=session.kernel().cg
            ))
            got["timed greedy"] = outcome(lambda: run_algorithm(
                "greedy", slif, start.copy(), time_constraint=1.0
            ))
        assert got == self.EXPECTED[where]
