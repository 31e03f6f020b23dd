"""Bitrate estimation (Section 3.2, Equations 2 and 3).

The bitrate of a channel is the data it moves during one start-to-finish
execution of its source behavior, divided by that execution time:

    ChanBitrate(c) = (c.accfreq * c.bits) / Exectime(c.src)

and a bus's bitrate is the sum of its channels' bitrates:

    BusBitrate(i) = sum over c in i.C of ChanBitrate(c)

The module also implements the capacity-aware refinement the paper
defers to [2]: a bus can physically move at most ``bitwidth`` bits per
``td`` (worst case) or ``ts`` (best case) time, so when the demanded
bitrate exceeds that capacity the transfers must slow down.  We report
the saturation factor so performance estimates can be derated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.annotations import left_sum
from repro.core.channels import FreqMode
from repro.core.graph import Slif
from repro.core.partition import Partition
from repro.errors import EstimationError
from repro.estimate.exectime import ExecTimeEstimator


def channel_bitrate(
    slif: Slif,
    partition: Partition,
    channel: str,
    estimator: Optional[ExecTimeEstimator] = None,
) -> float:
    """``ChanBitrate(c)`` (Eq. 2), in bits per time unit.

    A channel whose source behavior never finishes its work in zero time
    is impossible; a zero execution time (all weights zero) is reported
    as an estimation error rather than a division crash.
    """
    ch = slif.get_channel(channel)
    est = estimator or ExecTimeEstimator(slif, partition)
    src_time = est.exectime(ch.src)
    # The zero-time check comes first: a source that finishes in zero
    # time is impossible whether or not this channel moves data, and
    # returning 0.0 early would hide the defect for zero-bit channels.
    if src_time <= 0.0:
        raise EstimationError(
            f"channel {channel!r}: source behavior {ch.src!r} has zero "
            f"execution time; cannot form a bitrate"
        )
    moved = ch.frequency(est.mode) * ch.bits
    if moved == 0.0:
        return 0.0
    return moved / src_time


def bus_bitrate(
    slif: Slif,
    partition: Partition,
    bus: str,
    estimator: Optional[ExecTimeEstimator] = None,
) -> float:
    """``BusBitrate(i)`` (Eq. 3): sum of the bus's channel bitrates."""
    if bus not in slif.buses:
        raise EstimationError(f"no bus named {bus!r}")
    est = estimator or ExecTimeEstimator(slif, partition)
    return left_sum(
        channel_bitrate(slif, partition, ch, est)
        for ch in partition.channels_on(bus)
    )


def all_channel_bitrates(
    slif: Slif,
    partition: Partition,
    estimator: Optional[ExecTimeEstimator] = None,
) -> Dict[str, float]:
    """``ChanBitrate(c)`` for every channel, sharing one memoized estimator.

    The sharing matters: a fresh estimator per channel would redo the
    Eq. 1 recursion from scratch each time, turning a linear sweep into
    a quadratic one on call-deep graphs.
    """
    est = estimator or ExecTimeEstimator(slif, partition)
    return {
        name: channel_bitrate(slif, partition, name, est)
        for name in slif.channels
    }


def bus_capacity(slif: Slif, bus: str, worst_case: bool = True) -> float:
    """Maximum sustainable bitrate of a bus, in bits per time unit.

    One transfer moves up to ``bitwidth`` bits and takes ``td`` (worst
    case, endpoints on different components) or ``ts`` time.  A zero
    transfer time means the bus is modelled as infinitely fast.
    """
    b = slif.get_bus(bus)
    t = b.td if worst_case else b.ts
    if t == 0.0:
        return float("inf")
    return b.bitwidth / t


@dataclass(frozen=True)
class BusLoad:
    """Demand-versus-capacity summary for one bus.

    ``saturation`` is demand/capacity: values above 1.0 mean the
    channels collectively ask for more bandwidth than the bus can move,
    and transfers (hence the source behaviors) slow down by that factor.
    """

    bus: str
    demand: float
    capacity: float

    @property
    def saturation(self) -> float:
        if self.capacity == float("inf"):
            return 0.0
        if self.capacity == 0.0:
            return float("inf")
        return self.demand / self.capacity

    @property
    def saturated(self) -> bool:
        return self.saturation > 1.0

    @property
    def effective_bitrate(self) -> float:
        """The bitrate the bus actually sustains (capped at capacity)."""
        return min(self.demand, self.capacity)


def bus_load(
    slif: Slif,
    partition: Partition,
    bus: str,
    estimator: Optional[ExecTimeEstimator] = None,
    worst_case: bool = True,
) -> BusLoad:
    """Capacity-aware bus analysis (the paper's [2] refinement)."""
    return BusLoad(
        bus=bus,
        demand=bus_bitrate(slif, partition, bus, estimator),
        capacity=bus_capacity(slif, bus, worst_case),
    )


def all_bus_loads(
    slif: Slif,
    partition: Partition,
    estimator: Optional[ExecTimeEstimator] = None,
) -> Dict[str, BusLoad]:
    """:func:`bus_load` for every bus, sharing one memoized estimator."""
    est = estimator or ExecTimeEstimator(slif, partition)
    return {bus: bus_load(slif, partition, bus, est) for bus in slif.buses}
