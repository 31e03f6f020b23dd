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

    @pytest.mark.parametrize("spec", SPECS)
    def test_mapping_out_of_node_order_is_none(self, systems, spec):
        """A complete partition that lists its objects out of node order
        is left to the reference; its node-ordered twin is scored, to the
        reference's answers."""
        slif = systems[spec].slif
        ordered = random_partition(slif, seed=3)
        reordered = Partition(slif, ordered.name)
        for obj, comp in reversed(list(ordered.object_mapping().items())):
            reordered.assign(obj, comp)
        for chan, bus in ordered.channel_mapping().items():
            reordered.assign_channel(chan, bus)
        assert reordered == ordered and reordered.is_complete()
        assert list(reordered.object_mapping()) != list(ordered.object_mapping())
        kernel = BatchKernel.for_graph(slif)
        none, point = kernel.evaluate([(reordered, "r"), (ordered, "r")], ["HW"])
        assert none is None
        assert repr(point) == repr(evaluate_design_point(slif, ordered, ["HW"], "r"))
        none, report = kernel.reports(
            [(part, FreqMode.AVG, False) for part in (reordered, ordered)]
        )
        assert none is None
        assert_reports_identical(report, Estimator(slif, ordered).report())

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


def table_graph():
    """A graph with every kind of channel-table entry.

    ``Main`` makes a 0-bit call, reads and writes ports, makes a
    zero-frequency call into ``Hot`` (whose time overflows to inf) and
    writes two tagged variables; two buses, one with per-pair times.
    """
    from repro.core import SlifBuilder

    weights = {"proc": 1.0, "asic": 2.0, "mem": 0.5}
    slif = (
        SlifBuilder("table")
        .process("Main", ict={"proc": 50.0, "asic": 8.0},
                 size={"proc": 120, "asic": 900})
        .procedure("Sub", ict={"proc": 20.0, "asic": 3.0},
                   size={"proc": 60, "asic": 400})
        .procedure(
            "Hot",
            ict={"proc": 1.7e308, "asic": 1.7e308},
            size={"proc": 5, "asic": 50},
            parameter_bits=8,
        )
        .variable("buf", bits=8, elements=64, ict=weights, size=weights)
        .variable("flag", bits=1, ict=weights, size=weights)
        .port("in1", "in", 8)
        .port("out1", "out", 8)
        .call("Main", "Sub", freq=2)                  # 0 bits
        .read("Main", "in1", freq=1)                  # a port
        .write("Main", "out1", freq=0.0, accmax=3.0)  # a port, 0 at avg
        .call("Main", "Hot", freq=0.0)                # into an inf callee
        .write("Main", "buf", freq=4, tag="t")
        .write("Main", "flag", freq=3, tag="t", accmin=0.0)
        .read("Sub", "buf", freq=64)
        .read("Hot", "flag", freq=1e307)              # Hot's time: inf
        .processor("CPU", "proc")
        .asic("HW", "asic")
        .memory("RAM", "mem")
        .bus("wide", bitwidth=16, ts=0.1, td=1.0)
        .bus("narrow", bitwidth=4, ts=0.3, td=2.5)
        .build()
    )
    slif.get_bus("narrow").pair_times = {("proc", "asic"): 0.7}
    return slif


def table_partition(slif, bus_of=lambda channel: "wide", name="p"):
    part = Partition(slif, name)
    for obj, comp in (("Main", "CPU"), ("Sub", "HW"), ("Hot", "CPU"),
                      ("buf", "RAM"), ("flag", "HW")):
        part.assign(obj, comp)
    for channel in slif.channels:
        bus = bus_of(channel)
        if bus is not None:
            part.assign_channel(channel, bus)
    return part


def assert_kernel_matches_reference(kernel, slif, part):
    """The design point and all six reports of ``part``: each is the
    reference's bit for bit, or ``None`` exactly where it raises."""
    from repro.errors import SlifError

    [point] = kernel.evaluate([(part, "p")], ["HW"])
    try:
        ref = evaluate_design_point(slif, part, ["HW"], "p")
    except SlifError:
        assert point is None
    else:
        assert point is not None and repr(point) == repr(ref)
    items = [(part, mode, c) for mode in FreqMode for c in (False, True)]
    for report, (_, mode, c) in zip(kernel.reports(items), items):
        try:
            ref = Estimator(slif, part, mode, c).report()
        except SlifError:
            assert report is None, (mode, c)
        else:
            assert_reports_identical(report, ref)


class TestChannelTable:
    """The sweep reads a per-mapping channel table; every entry kind
    scores as the reference does."""

    def test_every_entry_kind_matches_the_reference(self):
        slif = table_graph()
        kernel = BatchKernel.for_graph(slif)
        part = table_partition(slif)
        assert_kernel_matches_reference(kernel, slif, part)
        # Hot's inf never reaches Main through the zero-frequency call
        [point] = kernel.evaluate([(part, "p")], ["HW"])
        assert point.system_time < float("inf")

    def test_zero_frequency_channel_on_an_unmapped_bus(self):
        slif = table_graph()
        kernel = BatchKernel.for_graph(slif)
        # the 0-bit call and the zero-frequency port write have no bus:
        # Eq. 1 never asks for either, so design points are scored
        part = table_partition(
            slif, lambda ch: None if ch in ("Main->Sub", "Main->out1") else "wide"
        )
        assert set(part.unmapped_channels()) == {"Main->Sub", "Main->out1"}
        [point] = kernel.evaluate([(part, "p")], ["HW"])
        assert point is not None
        assert_kernel_matches_reference(kernel, slif, part)
        # a channel Eq. 1 does use, left without a bus: both refuse
        part = table_partition(
            slif, lambda ch: None if ch == "Main->in1" else "wide"
        )
        assert kernel.evaluate([(part, "p")], ["HW"]) == [None]
        with pytest.raises(PartitionError, match="Main->in1"):
            evaluate_design_point(slif, part, ["HW"], "p")

    def test_zero_frequency_call_into_an_overflowing_callee(self):
        from repro.estimate.exectime import ExecTimeEstimator

        slif = table_graph()
        kernel = BatchKernel.for_graph(slif)
        part = table_partition(slif)
        assert ExecTimeEstimator(slif, part).exectime("Hot") == float("inf")
        # 0 * inf would be nan: the call is skipped, as the reference does
        items = [(part, mode, c) for mode in FreqMode for c in (False, True)]
        for report in kernel.reports(items):
            assert report.process_times["Main"] < float("inf")
        assert_kernel_matches_reference(kernel, slif, part)

    def test_two_mappings_alternating_on_one_kernel(self, monkeypatch):
        slif = table_graph()
        kernel = BatchKernel.for_graph(slif)
        built = []
        build = kernel._channel_table
        monkeypatch.setattr(
            kernel, "_channel_table",
            lambda bus_of: built.append(1) or build(bus_of),
        )
        wide = table_partition(slif, name="wide")
        mixed = table_partition(
            slif, lambda ch: "narrow" if ch.startswith("Main") else "wide", "mixed"
        )
        for part in (wide, mixed, wide, mixed, wide):
            assert_kernel_matches_reference(kernel, slif, part)
        assert len(built) == 2  # one table per distinct mapping


def reach_graph():
    """``Main`` calls ``Sub``; ``Orphan`` is no process's callee, so
    design points never sweep it and full reports do.  ``Main`` and
    ``Orphan`` each have one channel of nonzero and one of zero average
    frequency (nonzero at ``max``)."""
    from repro.core import SlifBuilder

    weights = {"proc": 1.5, "asic": 2.25, "mem": 0.5}
    return (
        SlifBuilder("reach")
        .process("Main", ict={"proc": 50.0, "asic": 8.0},
                 size={"proc": 120, "asic": 900})
        .procedure("Sub", ict={"proc": 20.0, "asic": 3.0},
                   size={"proc": 60, "asic": 400})
        .procedure("Orphan", ict={"proc": 7.0, "asic": 1.0},
                   size={"proc": 30, "asic": 200})
        .variable("buf", bits=8, elements=64, ict=weights, size=weights)
        .variable("flag", bits=1, ict=weights, size=weights)
        .port("in1", "in", 8)
        .port("out1", "out", 8)
        .call("Main", "Sub", freq=2)
        .read("Main", "in1", freq=1)
        .write("Main", "out1", freq=0.0, accmax=3.0)
        .read("Sub", "buf", freq=64)
        .read("Orphan", "buf", freq=5)
        .write("Orphan", "flag", freq=0.0, accmax=2.0)
        .processor("CPU", "proc")
        .asic("HW", "asic")
        .memory("RAM", "mem")
        .bus("wide", bitwidth=16, ts=0.1, td=1.0)
        .build()
    )


#: (channel left without a bus, whether its design point is scored)
UNMAPPED = [
    pytest.param("Main->in1", False, id="reachable-nonzero"),
    pytest.param("Main->out1", True, id="reachable-zero"),
    pytest.param("Orphan->buf", True, id="unreachable-nonzero"),
    pytest.param("Orphan->flag", True, id="unreachable-zero"),
]


class TestUnmappedBus:
    """A slot on no bus abstains exactly when Eq. 1 reads it: a nonzero
    frequency from a behavior the sweep reaches."""

    @staticmethod
    def partition(slif, unmapped):
        part = Partition(slif, "p")
        for obj, comp in (("Main", "CPU"), ("Sub", "HW"), ("Orphan", "HW"),
                          ("buf", "RAM"), ("flag", "HW")):
            part.assign(obj, comp)
        for channel in slif.channels:
            if channel != unmapped:
                part.assign_channel(channel, "wide")
        return part

    @pytest.mark.parametrize("channel, scored", UNMAPPED)
    def test_design_points_and_reports(self, channel, scored):
        slif = reach_graph()
        kernel = BatchKernel.for_graph(slif)
        part = self.partition(slif, channel)
        [point] = kernel.evaluate([(part, "p")], ["HW"])
        assert (point is not None) == scored
        # the partition is not proper, so every report is the reference's
        items = [(part, mode, c) for mode in FreqMode for c in (False, True)]
        assert kernel.reports(items) == [None] * len(items)
        assert_kernel_matches_reference(kernel, slif, part)

    @pytest.mark.parametrize("concurrent", [False, True], ids=["seq", "conc"])
    @pytest.mark.parametrize("mode", list(FreqMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("channel, scored", UNMAPPED)
    def test_every_mode_sweeps_as_the_reference(
        self, channel, scored, mode, concurrent
    ):
        """Over the report order, which reaches ``Orphan``, a sweep in
        each of the six modes abstains exactly where the reference's
        time of a swept behavior raises, and otherwise gives its times."""
        from repro.estimate.exectime import ExecTimeEstimator
        from repro.estimate.kernel import _Unsupported

        slif = reach_graph()
        kernel = BatchKernel.for_graph(slif)
        cg = kernel.cg
        part = self.partition(slif, channel)
        swept = [cg.node_names[ni] for ni in cg.order_report if ni < cg.n_behaviors]
        reference = ExecTimeEstimator(slif, part, mode, concurrent)
        try:
            want = [repr(reference.exectime(name)) for name in swept]
        except PartitionError:
            want = None
        comp_of = cg.comp_vector(part._bv_comp)
        _, table = kernel._bus_vector(part._chan_bus)
        try:
            times = kernel._sweep(
                comp_of, table, mode.value, concurrent, kernel._report_order
            )
        except _Unsupported:
            got = None
        else:
            got = [repr(times[cg.node_index[name]]) for name in swept]
        assert got == want


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
