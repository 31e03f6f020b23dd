"""Unit tests for partitions: assignment rules, cut sets, completeness."""

import pytest

from repro.core.partition import Partition, single_bus_partition
from repro.errors import PartitionError, SlifNameError

from _helpers import build_demo_graph


@pytest.fixture
def g():
    return build_demo_graph()


class TestAssignment:
    def test_behavior_only_on_processor(self, g):
        p = Partition(g)
        p.assign("Main", "CPU")
        with pytest.raises(PartitionError):
            p.assign("Main", "RAM")

    def test_variable_on_processor_or_memory(self, g):
        p = Partition(g)
        p.assign("buf", "RAM")
        p.assign("buf", "HW")  # re-assignment allowed
        assert p.get_bv_comp("buf") == "HW"

    def test_unknown_object_raises(self, g):
        with pytest.raises(SlifNameError):
            Partition(g).assign("ghost", "CPU")

    def test_port_cannot_be_assigned(self, g):
        with pytest.raises(SlifNameError):
            Partition(g).assign("in1", "CPU")

    def test_channel_to_bus(self, g):
        p = Partition(g)
        p.assign_channel("Main->Sub", "sysbus")
        assert p.get_chan_bus("Main->Sub") == "sysbus"

    def test_channel_to_unknown_bus(self, g):
        with pytest.raises(SlifNameError):
            Partition(g).assign_channel("Main->Sub", "ghostbus")

    def test_move_returns_previous(self, g):
        p = Partition(g)
        p.assign("Main", "CPU")
        assert p.move("Main", "HW") == "CPU"
        assert p.get_bv_comp("Main") == "HW"

    def test_move_unmapped_raises(self, g):
        with pytest.raises(PartitionError):
            Partition(g).move("Main", "CPU")


class TestLookups:
    def test_unmapped_lookup_raises(self, g):
        p = Partition(g)
        with pytest.raises(PartitionError):
            p.get_bv_comp("Main")
        with pytest.raises(PartitionError):
            p.get_chan_bus("Main->Sub")

    def test_maybe_bv_comp_none_for_ports(self, g):
        p = Partition(g)
        assert p.maybe_bv_comp("in1") is None

    def test_objects_on(self, g):
        p = Partition(g)
        p.assign("Main", "CPU")
        p.assign("Sub", "CPU")
        assert sorted(p.objects_on("CPU")) == ["Main", "Sub"]
        assert p.objects_on("HW") == []


class TestCutSets:
    def test_cut_channels_cross_boundary(self, g):
        p = single_bus_partition(
            g, {"Main": "CPU", "Sub": "HW", "buf": "RAM", "flag": "CPU"}
        )
        cut_names = {c.name for c in p.cut_channels("CPU")}
        # Main->Sub crosses (CPU->HW); port accesses cross; flag is local
        assert "Main->Sub" in cut_names
        assert "Main->in1" in cut_names
        assert "Main->flag" not in cut_names

    def test_port_access_always_cut(self, g):
        p = single_bus_partition(
            g, {"Main": "CPU", "Sub": "CPU", "buf": "CPU", "flag": "CPU"}
        )
        assert {c.name for c in p.cut_channels("CPU")} == {
            "Main->in1",
            "Main->out1",
        }

    def test_cut_buses(self, g):
        p = single_bus_partition(
            g, {"Main": "CPU", "Sub": "HW", "buf": "RAM", "flag": "CPU"}
        )
        assert p.cut_buses("CPU") == ["sysbus"]

    def test_channel_crosses_components(self, g):
        p = single_bus_partition(
            g, {"Main": "CPU", "Sub": "CPU", "buf": "RAM", "flag": "CPU"}
        )
        assert not p.channel_crosses_components(g.channels["Main->Sub"])
        assert p.channel_crosses_components(g.channels["Sub->buf"])
        assert p.channel_crosses_components(g.channels["Main->in1"])  # port


class TestCompleteness:
    def test_is_complete(self, g):
        p = single_bus_partition(
            g, {"Main": "CPU", "Sub": "HW", "buf": "RAM", "flag": "CPU"}
        )
        assert p.is_complete()
        assert p.validate() == []

    def test_incomplete_reports_missing(self, g):
        p = Partition(g)
        p.assign("Main", "CPU")
        assert "Sub" in p.unmapped_objects()
        assert p.unmapped_channels()
        with pytest.raises(PartitionError):
            p.require_complete()

    def test_require_complete_message(self, g):
        p = Partition(g, "half")
        p.assign("Main", "CPU")
        p.assign_channel("Main->Sub", "sysbus")
        with pytest.raises(PartitionError) as excinfo:
            p.require_complete()
        assert str(excinfo.value) == (
            "partition 'half' is not proper (unmapped objects: "
            "['Sub', 'buf', 'flag']; unmapped channels: ['Main->flag', "
            "'Main->in1', 'Main->out1', 'Sub->buf'])"
        )
        for obj, comp in (("Sub", "HW"), ("buf", "RAM"), ("flag", "CPU")):
            p.assign(obj, comp)
        with pytest.raises(PartitionError) as excinfo:
            p.require_complete()
        assert str(excinfo.value) == (
            "partition 'half' is not proper (unmapped channels: "
            "['Main->flag', 'Main->in1', 'Main->out1', 'Sub->buf'])"
        )
        for channel in g.channels:
            p.assign_channel(channel, "sysbus")
        p.require_complete()
        assert p.is_complete()

    def test_validate_lists_issues(self, g):
        p = Partition(g)
        issues = p.validate()
        assert any("Main" in i for i in issues)

    def test_single_bus_partition_requires_single_bus(self, g):
        g.add_bus(__import__("repro.core.components", fromlist=["Bus"]).Bus("bus2"))
        with pytest.raises(PartitionError):
            single_bus_partition(g, {})


class TestCopyAndSignature:
    def test_copy_independent(self, g):
        p = single_bus_partition(
            g, {"Main": "CPU", "Sub": "HW", "buf": "RAM", "flag": "CPU"}
        )
        q = p.copy()
        q.move("Sub", "CPU")
        assert p.get_bv_comp("Sub") == "HW"

    def test_signature_detects_difference(self, g):
        p = single_bus_partition(
            g, {"Main": "CPU", "Sub": "HW", "buf": "RAM", "flag": "CPU"}
        )
        q = p.copy()
        assert p.signature() == q.signature()
        q.move("Sub", "CPU")
        assert p.signature() != q.signature()

    def test_equality(self, g):
        p = single_bus_partition(
            g, {"Main": "CPU", "Sub": "HW", "buf": "RAM", "flag": "CPU"}
        )
        assert p == p.copy()
