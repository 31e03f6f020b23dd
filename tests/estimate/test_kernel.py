"""Equivalence tests for the flat-array batch kernel.

The kernel's contract is strict: for any candidate it accepts, results
are **byte-identical** to the memoized reference estimators — same
floats, same int-vs-float zeroes, same dict orders; for any candidate
it cannot score exactly, it abstains (``None``) and the caller reruns
the reference path.  These tests pin both halves across all bundled
specs, every frequency mode and concurrency on and off;
``tests/properties/test_prop_kernel.py`` does the same on generated
specs.
"""

import pytest

from repro.api import build_system
from repro.core.channels import FreqMode
from repro.core.partition import Partition
from repro.errors import EstimationError, PartitionError, RecursionCycleError
from repro.estimate.compile import compile_graph
from repro.estimate.engine import Estimator
from repro.estimate.kernel import BatchKernel
from repro.partition.pareto import evaluate_design_point
from repro.partition.random_part import random_partition

from _helpers import build_demo_graph, build_demo_partition, kernel_disabled

SPECS = ("ans", "ether", "fuzzy", "vol")

#: the kernel's one backend, which the case ids name
BACKENDS = ["stdlib"]


@pytest.fixture(scope="module")
def systems():
    return {name: build_system(name) for name in SPECS}


def assert_reports_identical(got, ref):
    """Bit-for-bit: dataclass repr distinguishes 0 from 0.0 and orders."""
    assert got is not None
    assert repr(got) == repr(ref)


class TestDesignPointEquivalence:
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_initial_partition(self, systems, spec, backend):
        system = systems[spec]
        kernel = BatchKernel.for_graph(system.slif)
        ref = evaluate_design_point(
            system.slif, system.partition, ["HW"], "all-sw"
        )
        [got] = kernel.evaluate([(system.partition, "all-sw")], ["HW"])
        assert got == ref
        assert repr(got) == repr(ref)

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_random_partition_batch(self, systems, spec, backend):
        slif = systems[spec].slif
        candidates = [
            (random_partition(slif, seed=i, name=f"r{i}"), f"r{i}")
            for i in range(50)
        ]
        kernel = BatchKernel.for_graph(slif)
        got = kernel.evaluate(candidates, ["HW"])
        for point, (part, label) in zip(got, candidates):
            ref = evaluate_design_point(slif, part, ["HW"], label)
            assert point is not None
            assert repr(point) == repr(ref)


class TestReportEquivalence:
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("mode", list(FreqMode))
    @pytest.mark.parametrize("concurrent", [False, True])
    def test_full_report(self, systems, spec, backend, mode, concurrent):
        system = systems[spec]
        ref = Estimator(system.slif, system.partition, mode, concurrent).report()
        kernel = BatchKernel.for_graph(system.slif)
        got = kernel.reports([(system.partition, mode, concurrent)])[0]
        assert_reports_identical(got, ref)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_randomized_reports_in_one_batch(self, systems, backend):
        slif = systems["ether"].slif
        parts = [random_partition(slif, seed=i) for i in range(6)]
        items = [
            (part, mode, concurrent)
            for part in parts
            for mode in FreqMode
            for concurrent in (False, True)
        ]
        kernel = BatchKernel.for_graph(slif)
        got = kernel.reports(items)
        assert len(got) == len(items)
        for report, (part, mode, concurrent) in zip(got, items):
            ref = Estimator(slif, part, mode, concurrent).report()
            assert_reports_identical(report, ref)

    def test_demo_graph_all_placements(self):
        slif = build_demo_graph()
        kernel = BatchKernel.for_graph(slif)
        for sub_on in ("CPU", "HW"):
            part = build_demo_partition(slif, sub_on=sub_on)
            for mode in FreqMode:
                for concurrent in (False, True):
                    ref = Estimator(slif, part, mode, concurrent).report()
                    got = kernel.reports([(part, mode, concurrent)])[0]
                    assert_reports_identical(got, ref)


class TestAbstention:
    """Candidates the kernel cannot score exactly come back ``None``."""

    def test_incomplete_partition_report_is_none(self):
        slif = build_demo_graph()
        kernel = BatchKernel.for_graph(slif)
        incomplete = Partition(slif, "incomplete")
        incomplete.assign("Main", "CPU")
        assert kernel.reports([(incomplete, FreqMode.AVG, False)])[0] is None
        # ... and the reference path raises, as it always did
        with pytest.raises(PartitionError):
            Estimator(slif, incomplete).report()

    def test_unmapped_object_design_point_is_none(self):
        slif = build_demo_graph()
        kernel = BatchKernel.for_graph(slif)
        partial = Partition(slif, "partial")
        partial.assign("Main", "CPU")   # Sub/buf/flag unmapped
        for ch in slif.channels:
            partial.assign_channel(ch, "sysbus")
        [point] = kernel.evaluate([(partial, "p")], ["HW"])
        assert point is None

    def test_missing_technology_weight_abstains(self):
        from repro.core import SlifBuilder

        slif = (
            SlifBuilder("nw")
            .process("Main", ict={"proc": 5.0}, size={"proc": 10})
            .processor("CPU", "proc")
            .asic("HW", "asic")
            .bus("b", bitwidth=16, ts=0.1, td=1.0)
            .build()
        )
        kernel = BatchKernel.for_graph(slif)
        part = Partition(slif, "hw")
        part.assign("Main", "HW")        # no "asic" weights annotated
        [point] = kernel.evaluate([(part, "hw")], ["HW"])
        assert point is None
        with pytest.raises(EstimationError):
            evaluate_design_point(slif, part, ["HW"], "hw")

    def test_call_cycle_is_kernel_unavailable(self):
        from repro.core import SlifBuilder
        from repro.core.partition import single_bus_partition

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
        cg = compile_graph(slif)
        assert cg.order_design is None and cg.order_report is None
        kernel = BatchKernel.for_graph(slif)
        part = single_bus_partition(slif, {"A": "CPU", "B": "CPU"})
        items = [(part, mode, c) for mode in FreqMode for c in (False, True)]
        assert kernel.reports(items) == [None] * len(items)
        assert kernel.evaluate([(part, "a"), (part, "b")], ["CPU"]) == [None] * 2
        for compute in (
            lambda: Estimator(slif, part).report(),
            lambda: evaluate_design_point(slif, part, ["CPU"], "a"),
        ):
            with pytest.raises(RecursionCycleError, match="A -> B -> A"):
                compute()

    def test_kernel_disabled_helper(self, systems):
        system = systems["fuzzy"]
        kernel = BatchKernel.for_graph(system.slif)
        items = [(system.partition, FreqMode.AVG, False)]
        candidates = [(system.partition, "a")]
        with kernel_disabled():
            assert kernel.reports(items) == [None]
            assert kernel.evaluate(candidates, ["HW"]) == [None]
        assert_reports_identical(
            kernel.reports(items)[0],
            Estimator(system.slif, system.partition).report(),
        )
        assert kernel.evaluate(candidates, ["HW"]) == [
            evaluate_design_point(system.slif, system.partition, ["HW"], "a")
        ]


class TestObsCounters:
    def test_compile_and_batch_counters(self, systems):
        from repro import obs

        obs.reset()
        obs.enable()
        try:
            slif = systems["fuzzy"].slif
            kernel = BatchKernel.for_graph(slif)
            kernel.evaluate(
                [(systems["fuzzy"].partition, "a")] * 3, ["HW"]
            )
            snapshot = obs.snapshot()
            assert snapshot["counters"]["kernel.compiles"] == 1
            assert snapshot["counters"]["kernel.batches"] == 1
            assert snapshot["counters"]["kernel.candidates"] == 3
        finally:
            obs.disable()
            obs.reset()
