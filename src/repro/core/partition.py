"""Partitions: the functional-to-structural mapping of Section 2.2.

A *proper partition* maps every behavior to exactly one processor, every
variable to exactly one processor or memory, and every channel to
exactly one bus.  :class:`Partition` stores that mapping separately from
the graph so a single annotated :class:`~repro.core.graph.Slif` can be
shared by the thousands of candidate partitions a partitioning algorithm
examines.

The class exposes the lookup procedures the paper's estimation equations
are written in terms of: ``get_bv_comp`` (GetBvComp), ``get_chan_bus``
(GetChanBus), plus the cut-set helpers ``cut_channels``/``cut_buses``
used by the I/O equation (Eq. 6).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.channels import Channel
from repro.core.graph import Slif
from repro.errors import PartitionError, SlifNameError


class Partition:
    """A mapping of functional objects to system components.

    The mapping is name-based and sparse: objects may be temporarily
    unmapped while an algorithm constructs a partition; estimation
    demands completeness and raises :class:`PartitionError` otherwise.
    """

    def __init__(self, slif: Slif, name: str = "partition") -> None:
        self.slif = slif
        self.name = name
        self._bv_comp: Dict[str, str] = {}
        self._chan_bus: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # assignment

    def assign(self, obj: str, component: str) -> None:
        """Map the behavior or variable ``obj`` onto ``component``.

        Enforces the kind rules (see :meth:`require_assignable`).
        """
        self.require_assignable(obj, component)
        self._bv_comp[obj] = component

    def require_assignable(self, obj: str, component: str) -> None:
        """Raise unless ``obj`` may be mapped onto ``component``.

        The kind rules: behaviors go only to processors; variables to
        processors or memories.
        """
        slif = self.slif
        if obj in slif.behaviors:
            if component not in slif.processors:
                raise PartitionError(
                    f"behavior {obj!r} may only be mapped to a processor; "
                    f"{component!r} is not one"
                )
        elif obj in slif.variables:
            if component not in slif.processors and component not in slif.memories:
                raise PartitionError(
                    f"variable {obj!r} may only be mapped to a processor or "
                    f"memory; {component!r} is neither"
                )
        else:
            raise SlifNameError(f"no behavior or variable named {obj!r}")

    def assign_channel(self, channel: str, bus: str) -> None:
        """Map ``channel`` onto ``bus``."""
        if channel not in self.slif.channels:
            raise SlifNameError(f"no channel named {channel!r}")
        if bus not in self.slif.buses:
            raise SlifNameError(f"no bus named {bus!r}")
        self._chan_bus[channel] = bus

    def unassign(self, obj: str) -> None:
        """Remove ``obj``'s mapping (used by transformations)."""
        self._bv_comp.pop(obj, None)

    def unassign_channel(self, channel: str) -> None:
        self._chan_bus.pop(channel, None)

    def move(self, obj: str, component: str) -> str:
        """Re-map ``obj`` to ``component``; returns the previous component.

        The primitive operation of move-based partitioning algorithms.
        """
        old = self._bv_comp.get(obj)
        if old is None:
            raise PartitionError(f"object {obj!r} is not currently mapped")
        self.assign(obj, component)
        return old

    # ------------------------------------------------------------------
    # lookup (the paper's Get* procedures)

    def get_bv_comp(self, obj: str) -> str:
        """``GetBvComp(bv)``: the processor/memory ``obj`` is mapped to."""
        try:
            return self._bv_comp[obj]
        except KeyError:
            raise PartitionError(
                f"object {obj!r} has not been mapped to any component"
            ) from None

    def get_chan_bus(self, channel: str) -> str:
        """``GetChanBus(c)``: the bus ``channel`` is mapped to."""
        try:
            return self._chan_bus[channel]
        except KeyError:
            raise PartitionError(
                f"channel {channel!r} has not been mapped to any bus"
            ) from None

    def maybe_bv_comp(self, obj: str) -> Optional[str]:
        """Like :meth:`get_bv_comp` but ``None`` when unmapped.

        Ports are external to every component, so this returns ``None``
        for port names too — which makes every port access a cut access,
        matching Eq. 6's treatment of external ports.
        """
        return self._bv_comp.get(obj)

    def objects_on(self, component: str) -> List[str]:
        """All behavior/variable names currently mapped to ``component``."""
        return [o for o, c in self._bv_comp.items() if c == component]

    def channels_on(self, bus: str) -> List[str]:
        """All channel names currently mapped to ``bus`` (``i.C``)."""
        return [ch for ch, b in self._chan_bus.items() if b == bus]

    # ------------------------------------------------------------------
    # cut sets (Eq. 6)

    def channel_is_cut(self, channel: Channel, component: str) -> bool:
        """True when ``channel`` crosses the boundary of ``component``.

        Per Eq. 6's ``CutChans``: exactly one endpoint lies inside the
        component.  A port endpoint is never inside any component.
        """
        src_comp = self.maybe_bv_comp(channel.src)
        dst_comp = self.maybe_bv_comp(channel.dst)
        src_in = src_comp == component
        dst_in = dst_comp == component
        return src_in != dst_in

    def cut_channels(self, component: str) -> List[Channel]:
        """``CutChans(p)``: channels crossing ``component``'s boundary."""
        return [
            ch
            for ch in self.slif.channels.values()
            if self.channel_is_cut(ch, component)
        ]

    def cut_buses(self, component: str) -> List[str]:
        """``CutBuses(p)``: buses implementing at least one cut channel."""
        cut: Set[str] = set()
        for ch in self.cut_channels(component):
            bus = self._chan_bus.get(ch.name)
            if bus is not None:
                cut.add(bus)
        # deterministic order for reporting
        return [b for b in self.slif.buses if b in cut]

    def channel_crosses_components(self, channel: Channel) -> bool:
        """True when the channel's endpoints sit on different components.

        This selects between the bus ``ts`` and ``td`` transfer times in
        Eq. 1.  Port endpoints always count as a different "component"
        (they are off-chip).
        """
        src_comp = self.maybe_bv_comp(channel.src)
        dst_comp = self.maybe_bv_comp(channel.dst)
        if dst_comp is None or src_comp is None:
            return True
        return src_comp != dst_comp

    # ------------------------------------------------------------------
    # completeness / validation

    def unmapped_objects(self) -> List[str]:
        """Behavior/variable names not yet mapped to any component."""
        return [n for n in self.slif.bv_names() if n not in self._bv_comp]

    def unmapped_channels(self) -> List[str]:
        """Channel names not yet mapped to any bus."""
        return [n for n in self.slif.channels if n not in self._chan_bus]

    def is_complete(self) -> bool:
        """True when every object and channel is mapped (proper partition)."""
        slif, mapped = self.slif, self._bv_comp.keys()
        return (
            slif.behaviors.keys() <= mapped
            and slif.variables.keys() <= mapped
            and slif.channels.keys() <= self._chan_bus.keys()
        )

    def require_complete(self) -> None:
        """Raise :class:`PartitionError` unless the partition is proper."""
        if self.is_complete():
            return
        missing_bv = self.unmapped_objects()
        missing_ch = self.unmapped_channels()
        parts = []
        if missing_bv:
            parts.append(f"unmapped objects: {sorted(missing_bv)[:5]}")
        if missing_ch:
            parts.append(f"unmapped channels: {sorted(missing_ch)[:5]}")
        raise PartitionError(
            f"partition {self.name!r} is not proper ({'; '.join(parts)})"
        )

    def validate(self) -> List[str]:
        """Return a list of rule violations (empty when proper).

        Checks the Section 2.2 rules: completeness, kind constraints
        (these are also enforced eagerly by :meth:`assign`), and that
        every referenced component/bus exists in the graph.
        """
        issues: List[str] = []
        slif = self.slif
        for obj in self.unmapped_objects():
            issues.append(f"object {obj!r} is not mapped to any component")
        for ch in self.unmapped_channels():
            issues.append(f"channel {ch!r} is not mapped to any bus")
        for obj, comp in self._bv_comp.items():
            if not slif.has_node(obj):
                issues.append(f"mapping references unknown object {obj!r}")
                continue
            if comp not in slif.processors and comp not in slif.memories:
                issues.append(
                    f"object {obj!r} mapped to unknown component {comp!r}"
                )
            elif obj in slif.behaviors and comp not in slif.processors:
                issues.append(f"behavior {obj!r} mapped to non-processor {comp!r}")
        for ch, bus in self._chan_bus.items():
            if ch not in slif.channels:
                issues.append(f"mapping references unknown channel {ch!r}")
            if bus not in slif.buses:
                issues.append(f"channel {ch!r} mapped to unknown bus {bus!r}")
        return issues

    # ------------------------------------------------------------------
    # misc

    def copy(self, name: Optional[str] = None) -> "Partition":
        """An independent copy sharing the same underlying graph."""
        clone = Partition(self.slif, name or self.name)
        clone._bv_comp = dict(self._bv_comp)
        clone._chan_bus = dict(self._chan_bus)
        return clone

    def object_mapping(self) -> Dict[str, str]:
        """Snapshot of the object-to-component mapping."""
        return dict(self._bv_comp)

    def channel_mapping(self) -> Dict[str, str]:
        """Snapshot of the channel-to-bus mapping."""
        return dict(self._chan_bus)

    def signature(self) -> Tuple[Tuple[str, str], ...]:
        """Hashable canonical form, for deduplicating explored partitions."""
        return tuple(sorted(self._bv_comp.items())) + tuple(
            sorted(self._chan_bus.items())
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return (
            self.slif is other.slif
            and self._bv_comp == other._bv_comp
            and self._chan_bus == other._chan_bus
        )

    def __repr__(self) -> str:
        return (
            f"Partition({self.name!r}: {len(self._bv_comp)} objects, "
            f"{len(self._chan_bus)} channels mapped)"
        )


def single_bus_partition(
    slif: Slif,
    object_map: Dict[str, str],
    bus: Optional[str] = None,
    name: str = "partition",
) -> Partition:
    """Build a partition from an object map, routing all channels to one bus.

    Convenience for the common single-system-bus architecture used in the
    paper's evaluation (a processor-ASIC architecture connected by one
    bus).  ``bus`` defaults to the graph's sole bus.
    """
    if bus is None:
        if len(slif.buses) != 1:
            raise PartitionError(
                f"graph has {len(slif.buses)} buses; specify which to use"
            )
        bus = next(iter(slif.buses))
    part = Partition(slif, name)
    for obj, comp in object_map.items():
        part.assign(obj, comp)
    for ch in slif.channels:
        part.assign_channel(ch, bus)
    return part
