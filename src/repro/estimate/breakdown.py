"""Execution-time breakdowns for designer interaction.

The paper's abstract promises "truly practical designer interaction";
knowing *that* a behavior takes 3300 µs is less actionable than knowing
*where* the time goes.  :func:`time_breakdown` decomposes Eq. 1's
result for one behavior into

* internal computation time (the behavior's own ``ict``),
* bus transfer time (the ``TransferTime`` terms of its channels), and
* time spent inside accessed objects (callee execution / variable
  access times),

with a per-channel attribution so the designer can see which access
dominates — the classic "move the hot callee (or its data) to hardware
/ local storage" decision driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.annotations import left_sum
from repro.core.channels import FreqMode
from repro.core.graph import Slif
from repro.core.partition import Partition
from repro.estimate.exectime import ExecTimeEstimator, transfer_time


@dataclass(frozen=True)
class ChannelShare:
    """One channel's contribution to its source behavior's time."""

    channel: str
    dst: str
    accesses: float
    transfer: float      # total bus time across all accesses
    inside: float        # total time inside the accessed object

    @property
    def total(self) -> float:
        return self.transfer + self.inside


@dataclass
class Breakdown:
    """Where one behavior's execution time goes."""

    behavior: str
    ict: float
    channels: List[ChannelShare] = field(default_factory=list)

    @property
    def transfer(self) -> float:
        return left_sum(c.transfer for c in self.channels)

    @property
    def inside(self) -> float:
        return left_sum(c.inside for c in self.channels)

    @property
    def communication(self) -> float:
        """``Commtime(b)``: everything but the behavior's own ict."""
        return self.transfer + self.inside

    @property
    def total(self) -> float:
        return self.ict + self.communication

    def hottest(self, count: int = 3) -> List[ChannelShare]:
        """The channels costing the most time, biggest first."""
        return sorted(self.channels, key=lambda c: -c.total)[:count]

    def render(self) -> str:
        lines = [f"time breakdown for {self.behavior} (total {self.total:g}):"]
        if self.total > 0:
            lines.append(
                f"  computation {self.ict:g} ({100 * self.ict / self.total:.0f}%)"
                f"   bus transfer {self.transfer:g} "
                f"({100 * self.transfer / self.total:.0f}%)"
                f"   accessed objects {self.inside:g} "
                f"({100 * self.inside / self.total:.0f}%)"
            )
        for share in self.hottest():
            lines.append(
                f"    {share.channel}: {share.total:g} "
                f"({share.accesses:g} accesses; transfer {share.transfer:g}, "
                f"inside {share.inside:g})"
            )
        return "\n".join(lines)


def time_breakdown(
    slif: Slif,
    partition: Partition,
    behavior: str,
    mode: FreqMode = FreqMode.AVG,
    estimator: Optional[ExecTimeEstimator] = None,
) -> Breakdown:
    """Decompose ``Exectime(behavior)`` per Eq. 1's terms.

    The shares are exact: ``ict + sum(channel totals) == Exectime(b)``
    in sequential mode (the default of Eq. 1).
    """
    est = estimator or ExecTimeEstimator(slif, partition, mode)
    node = slif.get_behavior(behavior)
    comp = slif.get_component(partition.get_bv_comp(behavior))
    breakdown = Breakdown(behavior, node.ict.get(comp.technology.name))
    for channel in slif.out_channels(behavior):
        freq = channel.frequency(mode)
        per_transfer = transfer_time(slif, partition, channel)
        inside = est.exectime(channel.dst)
        breakdown.channels.append(
            ChannelShare(
                channel=channel.name,
                dst=channel.dst,
                accesses=freq,
                transfer=freq * per_transfer,
                inside=freq * inside,
            )
        )
    return breakdown


def system_breakdowns(
    slif: Slif,
    partition: Partition,
    mode: FreqMode = FreqMode.AVG,
) -> Dict[str, Breakdown]:
    """Breakdowns for every process, sharing one memoized estimator."""
    est = ExecTimeEstimator(slif, partition, mode)
    return {
        p.name: time_breakdown(slif, partition, p.name, mode, est)
        for p in slif.processes()
    }
