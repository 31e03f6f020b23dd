"""The estimation facade: all Section 3 metrics for one partition.

:class:`Estimator` bundles the individual metric modules behind one
object that shares a single memoized execution-time evaluator, and
:class:`EstimateReport` is the complete set of quality metrics for one
candidate partition — the per-option feedback SpecSyn shows a designer
("rapid estimates of size, I/O, and performance metrics for each option
examined", Section 6).

Everything here is a pure function of ``(Slif, Partition)``; nothing
mutates either, so a partitioning algorithm can keep one graph and
evaluate candidate partitions freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.channels import FreqMode
from repro.core.graph import Slif
from repro.core.partition import Partition
from repro.estimate.bitrate import BusLoad, all_bus_loads, channel_bitrate
from repro.estimate.exectime import ExecTimeEstimator
from repro.estimate.io import all_component_ios
from repro.estimate.size import all_component_sizes
from repro.obs import span


@dataclass(frozen=True)
class Violation:
    """One exceeded constraint."""

    component: str
    metric: str       # "size" | "io" | "time"
    used: float
    limit: float

    @property
    def excess(self) -> float:
        return self.used - self.limit

    @property
    def ratio(self) -> float:
        """Normalized excess (excess / limit), for cost functions."""
        if self.limit == 0:
            return float("inf") if self.used > 0 else 0.0
        return self.excess / self.limit

    def __str__(self) -> str:
        return (
            f"{self.component}: {self.metric} {self.used:g} exceeds "
            f"limit {self.limit:g} by {self.excess:g}"
        )


def budget_violations(
    slif: Slif, sizes: Dict[str, float], ios: Dict[str, int]
) -> List[Violation]:
    """Every exceeded size and pin budget of ``slif``'s components, in
    component order, given their Eq. 4–5 ``sizes`` and Eq. 6 ``ios``.

    The one violation rule: :meth:`Estimator.violations` and the batch
    kernel's reports both call it, and it reads each budget live.
    """
    found: List[Violation] = []
    for name in list(slif.processors) + list(slif.memories):
        comp = slif.get_component(name)
        if comp.size_constraint is not None and sizes[name] > comp.size_constraint:
            found.append(Violation(name, "size", sizes[name], comp.size_constraint))
        limit = getattr(comp, "io_constraint", None)
        if limit is not None and ios[name] > limit:
            found.append(Violation(name, "io", ios[name], limit))
    return found


@dataclass
class EstimateReport:
    """All design metrics for one partition.

    Sizes are in each component technology's unit; times in the time
    unit of the annotations (microseconds by default); bitrates in bits
    per time unit; I/O in wires.
    """

    partition_name: str
    component_sizes: Dict[str, float] = field(default_factory=dict)
    component_ios: Dict[str, int] = field(default_factory=dict)
    process_times: Dict[str, float] = field(default_factory=dict)
    system_time: float = 0.0
    bus_loads: Dict[str, BusLoad] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        """True when no constraint is violated."""
        return not self.violations

    @property
    def bus_bitrates(self) -> Dict[str, float]:
        return {name: load.demand for name, load in self.bus_loads.items()}

    def render(self) -> str:
        """Human-readable multi-line summary (the CLI's output)."""
        lines = [f"Estimates for partition {self.partition_name!r}:"]
        if self.component_sizes:
            lines.append("  sizes:")
            for comp, size in sorted(self.component_sizes.items()):
                io = self.component_ios.get(comp)
                io_s = f", io={io} wires" if io is not None else ""
                lines.append(f"    {comp}: {size:g}{io_s}")
        if self.process_times:
            lines.append("  process execution times:")
            for proc, t in sorted(self.process_times.items()):
                lines.append(f"    {proc}: {t:g}")
            lines.append(f"  system time: {self.system_time:g}")
        if self.bus_loads:
            lines.append("  buses:")
            for name, load in sorted(self.bus_loads.items()):
                sat = f" (SATURATED x{load.saturation:.2f})" if load.saturated else ""
                lines.append(
                    f"    {name}: bitrate={load.demand:g} "
                    f"capacity={load.capacity:g}{sat}"
                )
        if self.violations:
            lines.append("  VIOLATIONS:")
            for v in self.violations:
                lines.append(f"    {v}")
        else:
            lines.append("  all constraints satisfied")
        return "\n".join(lines)


class Estimator:
    """Computes every metric for (graph, partition) with shared memoization.

    Parameters
    ----------
    mode:
        Which access-frequency weight drives performance metrics
        (average by default; min/max give best/worst case).
    concurrent:
        Honour concurrency tags in execution time (see
        :mod:`repro.estimate.exectime`).
    """

    def __init__(
        self,
        slif: Slif,
        partition: Partition,
        mode: FreqMode = FreqMode.AVG,
        concurrent: bool = False,
        time_constraint: Optional[float] = None,
    ) -> None:
        self.slif = slif
        self.partition = partition
        self.time_constraint = time_constraint
        self._exec = ExecTimeEstimator(slif, partition, mode, concurrent)

    def invalidate(self) -> None:
        """Drop caches after the partition or annotations changed."""
        self._exec.invalidate()

    # -- individual metrics -------------------------------------------

    def execution_time(self, behavior: str) -> float:
        """Eq. 1 for one behavior."""
        return self._exec.exectime(behavior)

    def system_time(self) -> float:
        return self._exec.system_time()

    def channel_bitrate(self, channel: str) -> float:
        """Eq. 2 for one channel."""
        return channel_bitrate(self.slif, self.partition, channel, self._exec)

    def component_sizes(self) -> Dict[str, float]:
        """Eqs. 4–5 for every component."""
        return all_component_sizes(self.slif, self.partition)

    def component_ios(self) -> Dict[str, int]:
        """Eq. 6 for every component."""
        return all_component_ios(self.slif, self.partition)

    def bus_loads(self) -> Dict[str, BusLoad]:
        """Eq. 3 plus capacity analysis for every bus."""
        return all_bus_loads(self.slif, self.partition, self._exec)

    # -- full report ---------------------------------------------------

    def violations(
        self,
        sizes: Optional[Dict[str, float]] = None,
        ios: Optional[Dict[str, int]] = None,
    ) -> List[Violation]:
        """All exceeded size and I/O constraints (:func:`budget_violations`)."""
        return budget_violations(
            self.slif,
            sizes if sizes is not None else self.component_sizes(),
            ios if ios is not None else self.component_ios(),
        )

    def report(self) -> EstimateReport:
        """Compute everything at once (the partitioning inner-loop call).

        >>> from repro.api import build_system
        >>> from repro.estimate.engine import Estimator
        >>> system = build_system("vol")
        >>> report = Estimator(system.slif, system.partition).report()
        >>> round(report.system_time, 3)
        38.402
        >>> report.feasible
        True
        >>> sorted(report.process_times)
        ['VolMain']
        """
        with span("estimate.report", partition=self.partition.name):
            self.partition.require_complete()
            with span("estimate.size"):
                sizes = self.component_sizes()
            with span("estimate.io"):
                ios = self.component_ios()
            with span("estimate.exectime"):
                times = self._exec.process_times()
            system_time = max(times.values()) if times else 0.0
            violations = self.violations(sizes, ios)
            if self.time_constraint is not None and system_time > self.time_constraint:
                violations.append(
                    Violation("<system>", "time", system_time, self.time_constraint)
                )
            with span("estimate.bitrate"):
                bus_loads = self.bus_loads()
            return EstimateReport(
                partition_name=self.partition.name,
                component_sizes=sizes,
                component_ios=ios,
                process_times=times,
                system_time=system_time,
                bus_loads=bus_loads,
                violations=violations,
            )


def estimate(
    slif: Slif,
    partition: Partition,
    mode: FreqMode = FreqMode.AVG,
    concurrent: bool = False,
) -> EstimateReport:
    """One-shot full estimation of a partition."""
    return Estimator(slif, partition, mode, concurrent).report()
