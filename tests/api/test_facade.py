"""Behavior of the five facade functions against the underlying modules."""

import pytest

from repro import api
from repro.errors import SlifError


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
        assert session.kernel() is None
        with pytest.raises(RecursionCycleError):
            api.estimate("cycle", session=session)


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


def test_top_level_reexport_does_not_warn():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        from repro import DesignSystem, build_system  # noqa: F401
