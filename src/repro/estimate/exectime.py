"""Execution-time estimation (Section 3.1, Equation 1).

A behavior's execution time is its internal computation time (``ict``)
on the component it is mapped to, plus its communication time: for each
channel it accesses, the number of accesses times (the bus transfer time
for the channel's bits, plus the execution time of the accessed object).

    Exectime(b) = GetBvIct(b, p) + Commtime(b)
    Commtime(b) = sum over c in GetBehChans(b) of
                      c.accfreq * (TransferTime(c, p) + Exectime(c.dst))
    TransferTime(c, p) = bdt_time * ceil(c.bits / GetChanBus(c).bitwidth)
    bdt_time = bus.ts when both endpoints share a component, else bus.td

The destination's "execution time" is: a behavior's recursively-computed
execution time; a variable's access time (its ``ict`` weight on the
component it is stored in); zero for an external port.

Two refinements the paper sketches are included:

* **min/avg/max modes** — each channel carries ``accmin``/``accmax``
  weights; selecting :class:`~repro.core.channels.FreqMode` swaps the
  frequency used throughout (Section 2.4.1).
* **concurrency tags** (Section 2.3/2.4.1) — channels of one source
  sharing a tag may be accessed concurrently.  In ``concurrent`` mode
  the contributions of same-tag channels combine by maximum instead of
  sum; untagged channels remain sequential.  The paper's Eq. 1 is the
  sequential mode ("the simplest method requires assuming that a
  behavior's channel accesses occur sequentially").

Recursion (a cycle of call edges — see Section 2.2's observation that a
cycle represents recursion) is detected and reported rather than looping
forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.core.annotations import left_sum
from repro.core.channels import Channel, FreqMode
from repro.core.graph import Slif
from repro.core.partition import Partition
from repro.errors import EstimationError, RecursionCycleError
from repro.obs import OBS


@dataclass
class ExecTimeStats:
    """Per-estimator memo telemetry (see also the global registry).

    ``memo_hits``/``memo_misses`` describe the *current memo generation*
    — :meth:`ExecTimeEstimator.invalidate` resets them along with the
    memo itself, so the hit rate always refers to the cache contents it
    was measured against.  ``invalidations`` and ``max_depth`` are
    cumulative over the estimator's lifetime.  The process-global
    counters (``estimate.exectime.*``) are never reset by invalidation,
    giving whole-run totals instead.
    """

    memo_hits: int = 0
    memo_misses: int = 0
    invalidations: int = 0
    max_depth: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0


def _endpoint_technology(
    slif: Slif, partition: Partition, node: str
) -> Optional[str]:
    comp_name = partition.maybe_bv_comp(node)
    if comp_name is None:
        return None  # ports are external to every component
    return slif.get_component(comp_name).technology.name


def transfer_time(slif: Slif, partition: Partition, channel: Channel) -> float:
    """``TransferTime(c, p)``: bus time to move one access's bits.

    Zero-bit accesses (e.g. parameterless calls) take no bus time.  The
    ceiling division models breaking a wide transfer into bus-width
    pieces: 32 data bits over a 16-wire bus costs two transfers.  Buses
    carrying the Section 2.4.1 per-pair extension get the endpoint
    technologies so a pair-specific time can apply.
    """
    if channel.bits == 0:
        return 0.0
    bus = slif.get_bus(partition.get_chan_bus(channel.name))
    same = not partition.channel_crosses_components(channel)
    transfers = math.ceil(channel.bits / bus.bitwidth)
    if bus.pair_times:
        src_tech = _endpoint_technology(slif, partition, channel.src)
        dst_tech = _endpoint_technology(slif, partition, channel.dst)
        return bus.transfer_time(same, src_tech, dst_tech) * transfers
    return bus.transfer_time(same) * transfers


class ExecTimeEstimator:
    """Memoized execution-time evaluator over one (graph, partition) pair.

    Estimates are cached per destination object, which makes evaluating
    every process in the system linear in the graph — the property behind
    the paper's sub-10-ms estimation times.  Call :meth:`invalidate`
    after any change to the partition or annotations.
    """

    def __init__(
        self,
        slif: Slif,
        partition: Partition,
        mode: FreqMode = FreqMode.AVG,
        concurrent: bool = False,
    ) -> None:
        self.slif = slif
        self.partition = partition
        self.mode = mode
        self.concurrent = concurrent
        self._memo: Dict[str, float] = {}
        self._in_progress: Set[str] = set()
        self._stack: List[str] = []
        self.stats = ExecTimeStats()
        # Whole-run construction count: helpers are expected to share
        # one estimator per call tree, and this counter is how tests
        # (and --stats) catch a regression to one-per-channel.
        if OBS.enabled:
            OBS.inc("estimate.exectime.estimators_created")

    def invalidate(self) -> None:
        """Drop all cached results (after a partition or annotation edit).

        Also starts a fresh memo generation in :attr:`stats`: hit/miss
        counts reset so the reported rate matches the new cache.
        """
        self._memo.clear()
        self.stats.invalidations += 1
        self.stats.memo_hits = 0
        self.stats.memo_misses = 0
        if OBS.enabled:
            OBS.inc("estimate.exectime.invalidations")

    # ------------------------------------------------------------------

    def exectime(self, name: str) -> float:
        """Execution/access time of the functional object ``name``.

        Behaviors recurse per Eq. 1; variables return their mapped
        access time; ports return 0 (their timing is folded into the bus
        transfer).
        """
        if name in self._memo:
            self.stats.memo_hits += 1
            if OBS.enabled:
                OBS.inc("estimate.exectime.memo_hit")
            return self._memo[name]
        slif = self.slif
        if name in slif.ports:
            return 0.0
        if name in slif.variables:
            self.stats.memo_misses += 1
            if OBS.enabled:
                OBS.inc("estimate.exectime.memo_miss")
            var = slif.variables[name]
            comp = slif.get_component(self.partition.get_bv_comp(name))
            value = var.ict.get(comp.technology.name)
            self._memo[name] = value
            return value
        if name not in slif.behaviors:
            raise EstimationError(f"no functional object named {name!r}")
        if name in self._in_progress:
            cycle_start = self._stack.index(name)
            raise RecursionCycleError(self._stack[cycle_start:] + [name])
        self.stats.memo_misses += 1
        if OBS.enabled:
            OBS.inc("estimate.exectime.memo_miss")
        self._in_progress.add(name)
        self._stack.append(name)
        depth = len(self._stack)
        if depth > self.stats.max_depth:
            self.stats.max_depth = depth
            if OBS.enabled:
                OBS.gauge("estimate.exectime.max_depth").max(depth)
        try:
            behavior = slif.behaviors[name]
            comp = slif.get_component(self.partition.get_bv_comp(name))
            ict = behavior.ict.get(comp.technology.name)
            value = ict + self.comm_time(name)
        finally:
            self._in_progress.discard(name)
            self._stack.pop()
        self._memo[name] = value
        return value

    def comm_time(self, behavior: str) -> float:
        """``Commtime(b)``: total channel time of one execution of ``b``."""
        channels = self.slif.out_channels(behavior)
        if not self.concurrent:
            return left_sum(self._channel_cost(c) for c in channels)
        # concurrent mode: same-tag groups overlap, so a group costs the
        # maximum of its members; untagged channels stay sequential.
        total = 0.0
        groups: Dict[str, float] = {}
        for c in channels:
            cost = self._channel_cost(c)
            if c.tag is None:
                total += cost
            else:
                groups[c.tag] = max(groups.get(c.tag, 0.0), cost)
        return total + left_sum(groups.values())

    def _channel_cost(self, channel: Channel) -> float:
        freq = channel.frequency(self.mode)
        if freq == 0.0:
            return 0.0
        per_access = transfer_time(self.slif, self.partition, channel)
        per_access += self.exectime(channel.dst)
        return freq * per_access

    # ------------------------------------------------------------------

    def process_times(self) -> Dict[str, float]:
        """Execution time of every process (the system's root behaviors)."""
        return {p.name: self.exectime(p.name) for p in self.slif.processes()}

    def system_time(self) -> float:
        """A single performance figure for the whole system.

        Concurrent processes run in parallel on their components, so the
        system's start-to-finish time is the slowest process's execution
        time.  (Processes mapped to one standard processor actually
        time-share it; see :meth:`serialized_system_time` for that
        refinement.)
        """
        times = self.process_times()
        if not times:
            return 0.0
        return max(times.values())

    def serialized_system_time(self) -> float:
        """System time assuming processes on one component serialize.

        Processes sharing a standard processor cannot truly run
        concurrently; this refinement sums process times per component
        and takes the max across components.
        """
        per_component: Dict[str, float] = {}
        for proc in self.slif.processes():
            comp = self.partition.get_bv_comp(proc.name)
            per_component[comp] = per_component.get(comp, 0.0) + self.exectime(
                proc.name
            )
        if not per_component:
            return 0.0
        return max(per_component.values())


def execution_time(
    slif: Slif,
    partition: Partition,
    behavior: str,
    mode: FreqMode = FreqMode.AVG,
    concurrent: bool = False,
) -> float:
    """One-shot ``Exectime(b)`` (Eq. 1) without keeping an estimator."""
    return ExecTimeEstimator(slif, partition, mode, concurrent).exectime(behavior)
