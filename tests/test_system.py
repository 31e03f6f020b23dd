"""Integration tests for the high-level build_system pipeline.

``build_system`` lives in :mod:`repro.api` since the facade redesign;
the ``from repro import build_system`` re-export is covered by
``tests/api/test_facade.py``.
"""

import pytest

from repro.api import build_system
from repro.specs import PAPER_FIGURE4


class TestBuildSystem:
    def test_fuzzy_full_pipeline(self, fuzzy_system):
        s = fuzzy_system.slif.stats()
        assert s["bv"] == PAPER_FIGURE4["fuzzy"]["bv"]
        assert s["channels"] == PAPER_FIGURE4["fuzzy"]["channels"]
        assert set(fuzzy_system.slif.processors) == {"CPU", "HW"}
        assert set(fuzzy_system.slif.buses) == {"sysbus"}

    def test_initial_partition_all_software(self, fuzzy_system):
        mapping = fuzzy_system.partition.object_mapping()
        assert set(mapping.values()) == {"CPU"}
        assert fuzzy_system.partition.is_complete()

    def test_report_is_complete(self, fuzzy_system):
        report = fuzzy_system.report()
        assert report.system_time > 0
        assert report.component_sizes["CPU"] > 0
        assert report.component_sizes["HW"] == 0  # nothing mapped there yet

    def test_execution_time_query(self, fuzzy_system):
        t = fuzzy_system.execution_time("Convolve")
        assert t > 0

    def test_to_dot(self, fuzzy_system):
        text = fuzzy_system.to_dot()
        assert "FuzzyMain" in text and "digraph" in text

    def test_build_from_raw_vhdl(self):
        source = """
        entity Tiny is
            port ( a : in integer range 0 to 255; b : out integer range 0 to 255 );
        end;
        Main: process
            variable v : integer range 0 to 255;
        begin
            v := a + 1;
            b <= v;
            wait;
        end process;
        """
        system = build_system(source)
        assert system.slif.name == "user"
        assert system.report().system_time > 0

    def test_unknown_spec_rejected(self):
        from repro.errors import SlifError

        with pytest.raises(SlifError, match="registered front ends"):
            build_system("nonexistent")

    def test_custom_architecture_parameters(self):
        system = build_system("vol", processor_name="MCU", asic_name="FPGA", bus_bitwidth=8)
        assert "MCU" in system.slif.processors
        assert system.slif.buses["sysbus"].bitwidth == 8


class TestRepartition:
    def test_repartition_updates_partition(self):
        system = build_system("vol")
        system.slif.processors["CPU"].size_constraint = 100.0
        result = system.repartition("greedy")
        assert result.partition is system.partition
        assert system.partition.validate() == []

    def test_constrained_cpu_forces_offload(self):
        system = build_system("vol")
        report = system.report()
        # constrain the CPU to half its current usage
        system.slif.processors["CPU"].size_constraint = report.component_sizes["CPU"] / 2
        result = system.repartition("greedy")
        assert result.cost == 0.0
        after = system.report()
        assert after.component_sizes["HW"] > 0  # something moved to hardware
        assert after.feasible

    def test_all_algorithms_run_on_real_spec(self):
        system = build_system("vol")
        for algo in ("greedy", "group_migration", "clustering", "random"):
            result = system.repartition(algo, seed=0)
            assert result.partition.validate() == []


@pytest.mark.parametrize("name", ["ans", "ether", "fuzzy", "vol"])
def test_every_benchmark_estimates_quickly(name):
    """T-est (Figure 4): full estimation well under the paper's 10 ms
    reporting resolution on modern hardware — we allow 100 ms of slack."""
    import time

    system = build_system(name)
    system.report()  # warm the memoizer path once
    started = time.perf_counter()
    report = system.report()
    elapsed = time.perf_counter() - started
    assert report.system_time > 0
    assert elapsed < 0.1
