"""Incremental re-estimation under single-object partition moves.

Automated partitioning examines thousands of candidate partitions
(Section 5), and each candidate differs from the last by moving one
object.  Recomputing Eqs. 4–6 from scratch per move costs O(objects);
this module maintains the per-component size tallies and per-(component,
bus) cut-channel counts so a move costs O(degree of the moved object).

The tallies live on the graph's
:class:`~repro.estimate.compile.CompiledGraph` indices and hold a
partition the way the batch kernel reads one: :attr:`comp_of` is each
node's component index (then the port sentinel's ``-1``), the cut counts
are :meth:`~repro.estimate.compile.CompiledGraph.cut_counts` over it and
each slot's bus index, kept up to date from the first I/O query on, and
:attr:`sizes` has one entry per component index.  A start that maps
every node in node order, as every search's does, is read into them
the way the kernel reads one.

Every search moves through one pair on the same indices:
:meth:`~IncrementalEstimator.apply_move` returns the node's previous
component, which :meth:`~IncrementalEstimator.undo` moves it back to.
Both check the target against the one legal-target rule,
:attr:`CompiledGraph.pools <repro.estimate.compile.CompiledGraph.pools>`,
before anything changes, and run one move body.  The name-keyed
queries (:meth:`~IncrementalEstimator.component_sizes`, ...) translate
names once per call.

The execution-time metric is inherently global (Eq. 1 recurses through
the call structure), so a time query runs a fresh reference
:class:`~repro.estimate.exectime.ExecTimeEstimator` on the current
partition.  Cost functions that only need size/IO (the common inner
loop) never pay for it.

A search that only asks what a move *would* do need not make it:
:meth:`IncrementalEstimator.preview` and
:meth:`IncrementalEstimator.cut_delta` answer on indices from the
tallies plus the moved object's size weights and incident channels in
the compiled graph, leaving the partition alone.

Usage::

    inc = IncrementalEstimator(slif, partition)
    node, hw = inc.cg.node_index["Convolve"], inc.cg.comp_index["HW"]
    src = inc.apply_move(node, hw)   # mutates the partition
    ...evaluate...
    inc.undo(node, src)              # exact rollback
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.graph import Slif
from repro.core.partition import Partition
from repro.errors import PartitionError
from repro.estimate.compile import CompiledGraph, compile_graph
from repro.estimate.exectime import ExecTimeEstimator
from repro.estimate.size import object_size
from repro.obs import OBS


@dataclass
class IncrementalStats:
    """Telemetry for the move/undo inner loop:
    :meth:`IncrementalEstimator.publish` adds it to the global
    ``estimate.incremental.*`` counters."""

    moves_applied: int = 0
    moves_undone: int = 0


class IncrementalEstimator:
    """Size/IO tallies kept consistent across partition moves.

    The estimator *owns* move application: go through :meth:`apply_move`
    and :meth:`undo` rather than mutating the partition directly, or the
    tallies will drift (a drift check is available via
    :meth:`verify_consistency`, used by the property tests).

    ``compiled`` is the graph's
    :class:`~repro.estimate.compile.CompiledGraph`, whose size table and
    incidence arrays score moves; one is compiled when none is given.
    Whoever owns the graph compiles it once and hands it to every
    estimator of that graph (a session's kernel holds it).  Its nodes,
    channels, weights and technologies must not change while it is in
    use; component constraints may.  Moves never remap channels, so
    each slot's bus index is read from the partition once, on the first
    I/O query, when the cut counts are tallied; they are kept up to
    date from then on, so a search whose cost has no pin budget never
    pays for them.
    """

    def __init__(
        self,
        slif: Slif,
        partition: Partition,
        compiled: Optional[CompiledGraph] = None,
    ) -> None:
        if compiled is None:
            compiled = compile_graph(slif)
        elif compiled.slif is not slif:
            partition.require_complete()
            raise PartitionError("compiled graph was built for a different graph")
        self.slif = slif
        self.partition = partition
        self.cg = compiled
        self.stats = IncrementalStats()
        #: Eq. 4/5 size of each component, by component index
        self.sizes: List[float] = []
        #: the component index each node is mapped to, by node index,
        #: then the port sentinel's -1
        self.comp_of: List[int] = []
        # each slot's bus index, and the cut counts by component and bus
        # index (CompiledGraph.cut_counts); both None until an I/O query
        self._bus_of: Optional[List[int]] = None
        self._cuts: Optional[List[List[int]]] = None
        self._rebuild()

    # ------------------------------------------------------------------
    # construction of the tallies

    def _rebuild(self) -> None:
        """Check the partition is proper, then fill :attr:`comp_of` and
        :attr:`sizes`, adding each component's weights in mapping order.

        A mapping that lists every node in node order, as every start of
        a search does, is read the way the batch kernel reads one
        (:meth:`~repro.estimate.compile.CompiledGraph.comp_vector`);
        that reading proves every object mapped, so only the channels
        are left to check, and node order is then the mapping order.
        Any other mapping is read name by name.
        """
        cg, partition = self.cg, self.partition
        comp_of = cg.comp_vector(partition._bv_comp)
        if comp_of is None or not (
            self.slif.channels.keys() <= partition._chan_bus.keys()
        ):
            # raises, naming what is unmapped, unless only the shape differs
            partition.require_complete()
        slif, comp_names = self.slif, cg.comp_names
        sizes = self.sizes = [0.0] * cg.n_comps
        if comp_of is not None:
            self.comp_of = comp_of
            for obj, row, c in zip(cg.node_names, cg.size, comp_of):
                w = row[c]
                if w is None:
                    w = object_size(slif, obj, comp_names[c])
                sizes[c] += w
            return
        node_index, comp_index, size = cg.node_index, cg.comp_index, cg.size
        comp_of = self.comp_of = [0] * cg.n_nodes + [-1]
        for obj, comp in partition.object_mapping().items():
            node = node_index[obj]
            c = comp_of[node] = comp_index[comp]
            w = size[node][c]
            sizes[c] += w if w is not None else object_size(slif, obj, comp)

    def _reference_weights(
        self, node: int, src: int, dst: int
    ) -> Tuple[float, float]:
        """``GetBvSize`` of node ``node`` on components ``src`` and
        ``dst``, looked up the reference way.

        A move reads both weights off the compiled size table and comes
        here when the table lacks one (never annotated); ``src`` is
        looked up first, so this raises exactly what
        :func:`~repro.estimate.size.object_size` raises for it.
        """
        cg = self.cg
        obj = cg.node_names[node]
        return (
            object_size(self.slif, obj, cg.comp_names[src]),
            object_size(self.slif, obj, cg.comp_names[dst]),
        )

    def _cut_counts(self) -> List[List[int]]:
        """The cut counts, tallied on first use, when each slot's bus
        index is read from the partition.

        A channel mapping that names a channel or bus the graph lacks
        raises the graph's :class:`~repro.errors.SlifNameError` for the
        first such name, before anything is tallied.
        """
        if self._cuts is None:
            chan_bus = self.partition.channel_mapping()
            bus_of = self.cg.bus_vector(chan_bus)
            if bus_of is None:
                for chan, bus in chan_bus.items():
                    self.slif.get_channel(chan)
                    self.slif.get_bus(bus)
            self._bus_of = bus_of
            self._cuts = self.cg.cut_counts(self.comp_of, bus_of)
        return self._cuts

    # ------------------------------------------------------------------
    # queries

    def _component_index(self, component: str) -> int:
        try:
            return self.cg.comp_index[component]
        except KeyError:
            raise PartitionError(f"unknown component {component!r}") from None

    def component_size(self, component: str) -> float:
        """Current Eq. 4/5 size of ``component`` (O(1))."""
        return self.sizes[self._component_index(component)]

    def component_sizes(self) -> Dict[str, float]:
        """Every component's current size, in component order."""
        return dict(zip(self.cg.comp_names, self.sizes))

    def io(
        self, comp: int, delta: Optional[Mapping[Tuple[int, int], int]] = None
    ) -> int:
        """Current Eq. 6 I/O of component index ``comp`` (O(buses)).

        With ``delta`` from :meth:`cut_delta`, the I/O it would have
        after that move.
        """
        cuts = self._cut_counts()[comp]
        if delta:
            cuts = [n + delta.get((comp, b), 0) for b, n in enumerate(cuts)]
        return self.cg.io(cuts)

    def component_io(self, component: str) -> int:
        """Current Eq. 6 I/O of ``component``; :meth:`io` by name."""
        return self.io(self._component_index(component))

    def component_ios(self) -> Dict[str, int]:
        """Every component's current I/O, in component order."""
        cg = self.cg
        return dict(zip(cg.comp_names, map(cg.io, self._cut_counts())))

    def execution_time(self, behavior: str) -> float:
        """Eq. 1 of ``behavior`` on the current partition."""
        return ExecTimeEstimator(self.slif, self.partition).exectime(behavior)

    def system_time(self) -> float:
        """The system's execution time on the current partition."""
        return ExecTimeEstimator(self.slif, self.partition).system_time()

    # ------------------------------------------------------------------
    # move previews (the partition is left alone)

    def preview(self, node: int, src: int, dst: int) -> List[float]:
        """:attr:`sizes` after moving node ``node`` from component
        ``src`` to ``dst`` (indices, ``src != dst``).

        Neither the partition nor the cut counts change.  The two
        touched size tallies are left as :meth:`apply_move` followed by
        :meth:`undo` would leave them: with non-integral weights
        ``(a - w) + w`` is not always ``a``, and a search scored this way
        must see the same floats as one that applied and undid each
        trial move.
        """
        row = self.cg.size[node]
        w_src, w_dst = row[src], row[dst]
        if w_src is None or w_dst is None:
            w_src, w_dst = self._reference_weights(node, src, dst)
        sizes = self.sizes
        after = sizes[:]
        after[src] = left = sizes[src] - w_src
        after[dst] = right = sizes[dst] + w_dst
        sizes[src] = left + w_src
        sizes[dst] = right - w_dst
        return after

    def cut_delta(self, node: int, src: int, dst: int) -> Dict[Tuple[int, int], int]:
        """Cut-count changes, per ``(component, bus)`` index pair, of
        moving node ``node`` from component ``src`` to ``dst`` (indices).

        Only channels incident to the node can change, and only with
        respect to ``src`` and ``dst``.
        """
        cg = self.cg
        self._cut_counts()
        comp_of, bus_of = self.comp_of, self._bus_of
        slot_src, slot_dst = cg.slot_src, cg.slot_dst
        delta: Dict[Tuple[int, int], int] = {}
        for s in cg.inc_slot[cg.inc_lo[node]:cg.inc_lo[node + 1]]:
            bus = bus_of[s]
            # the far endpoint's component; a port reads the sentinel's -1
            other = comp_of[slot_dst[s] if slot_src[s] == node else slot_src[s]]
            # leaving src cuts a channel internal to src and un-cuts the rest
            key = (src, bus)
            delta[key] = delta.get(key, 0) + (1 if other == src else -1)
            # arriving at dst makes a channel to dst internal and cuts the rest
            key = (dst, bus)
            delta[key] = delta.get(key, 0) + (-1 if other == dst else 1)
        return delta

    # ------------------------------------------------------------------
    # moves

    def apply_move(self, node: int, dst: int) -> int:
        """Move node ``node`` to component ``dst`` (compiled-graph
        indices), updating every tally, and count it as an applied move;
        returns the node's previous component index, for :meth:`undo`.

        Moving a node to its own component changes nothing and is not
        counted.  A target outside the node's
        :attr:`~repro.estimate.compile.CompiledGraph.pools` entry, or an
        index outside the graph, raises
        :class:`~repro.errors.PartitionError` naming the object and the
        component, and a missing size weight what
        :func:`~repro.estimate.size.object_size` raises, all before
        anything changes.

        >>> from repro.api import build_system
        >>> from repro.estimate.incremental import IncrementalEstimator
        >>> system = build_system("vol")
        >>> inc = IncrementalEstimator(system.slif, system.partition)
        >>> cg, before = inc.cg, inc.component_sizes()
        >>> node = cg.node_index["Calibrate"]
        >>> src = inc.apply_move(node, cg.comp_index["HW"])
        >>> cg.comp_names[src]
        'CPU'
        >>> inc.component_size("CPU") < before["CPU"]
        True
        >>> inc.undo(node, src)
        >>> inc.component_sizes() == before
        True
        >>> inc.apply_move(node, -1)
        Traceback (most recent call last):
        ...
        repro.errors.PartitionError: object 'Calibrate' may not be mapped to component -1
        """
        # the legal-target check, inline on the hot path
        pools = self.cg.pools
        if not (0 <= node < len(pools) and dst in pools[node]):
            raise self._illegal_move(node, dst)
        src = self.comp_of[node]
        if src != dst:
            self._move(node, src, dst)
            self.stats.moves_applied += 1
        return src

    def undo(self, node: int, src: int) -> None:
        """Move node ``node`` back to component ``src``, the index
        :meth:`apply_move` returned, and count it as an undone move.

        It is checked as :meth:`apply_move` checks, and changes nothing
        when the node is already there.

        >>> from repro.api import build_system
        >>> from repro.estimate.incremental import IncrementalEstimator
        >>> system = build_system("vol")
        >>> inc = IncrementalEstimator(system.slif, system.partition)
        >>> node = inc.cg.node_index["Median3"]
        >>> inc.undo(node, inc.apply_move(node, inc.cg.comp_index["HW"]))
        >>> system.partition.get_bv_comp("Median3")
        'CPU'
        """
        pools = self.cg.pools
        if not (0 <= node < len(pools) and src in pools[node]):
            raise self._illegal_move(node, src)
        dst = self.comp_of[node]
        if dst != src:
            self._move(node, dst, src)
            self.stats.moves_undone += 1

    def _illegal_move(self, node: int, dst: int) -> PartitionError:
        """The error of moving node ``node`` to component ``dst`` when
        :attr:`~repro.estimate.compile.CompiledGraph.pools` rules it out;
        each is named, or given by index when the graph lacks it."""
        cg = self.cg
        obj = cg.node_names[node] if node in range(cg.n_nodes) else node
        comp = cg.comp_names[dst] if dst in range(cg.n_comps) else dst
        return PartitionError(f"object {obj!r} may not be mapped to component {comp!r}")

    def _move(self, node: int, src: int, dst: int) -> None:
        """Move node ``node`` from component ``src`` to ``dst`` (indices)
        in the tallies and the partition: the one move body, run only by
        :meth:`apply_move` and :meth:`undo`.

        Only the two involved components' tallies change: sizes move the
        object's weight (``-=`` on ``src``, then ``+=`` on ``dst``); cut
        counts, when kept, change as :meth:`cut_delta` says; and the
        partition's mapping entry for the node is set to ``dst``.
        """
        cg = self.cg
        row = cg.size[node]
        w_src, w_dst = row[src], row[dst]
        if w_src is None or w_dst is None:
            w_src, w_dst = self._reference_weights(node, src, dst)
        sizes = self.sizes
        sizes[src] -= w_src
        sizes[dst] += w_dst
        self.comp_of[node] = dst
        cuts = self._cuts
        if cuts is not None:
            for (c, b), change in self.cut_delta(node, src, dst).items():
                cuts[c][b] += change
        self.partition._bv_comp[cg.node_names[node]] = cg.comp_names[dst]

    def publish(self) -> None:
        """Add :attr:`stats` to the ``estimate.incremental.*`` counters;
        call once, when the search is done."""
        if OBS.enabled:
            for name, count in asdict(self.stats).items():
                if count:
                    OBS.inc(f"estimate.incremental.{name}", count)

    # ------------------------------------------------------------------
    # verification (used by property tests)

    def verify_consistency(self) -> None:
        """Assert the incremental tallies match a from-scratch rebuild."""
        from repro.estimate.io import all_component_ios
        from repro.estimate.size import all_component_sizes

        cg = self.cg
        mapping = self.partition.object_mapping()
        for node, obj in enumerate(cg.node_names):
            got = cg.comp_names[self.comp_of[node]]
            if got != mapping[obj]:
                raise AssertionError(
                    f"component drift on {obj!r}: incremental {got!r}, "
                    f"partition {mapping[obj]!r}"
                )
        sizes = self.component_sizes()
        fresh_sizes = all_component_sizes(self.slif, self.partition)
        for comp, size in fresh_sizes.items():
            got = sizes.get(comp, 0.0)
            if abs(got - size) > 1e-6:
                raise AssertionError(
                    f"size tally drift on {comp!r}: incremental {got}, "
                    f"fresh {size}"
                )
        fresh_ios = all_component_ios(self.slif, self.partition)
        for comp, io in fresh_ios.items():
            got = self.component_io(comp)
            if got != io:
                raise AssertionError(
                    f"io tally drift on {comp!r}: incremental {got}, fresh {io}"
                )
        fresh = cg.cut_counts(
            self.comp_of, cg.bus_vector(self.partition.channel_mapping())
        )
        if self._cut_counts() != fresh:
            raise AssertionError(
                f"cut count drift: incremental {self._cuts}, fresh {fresh}"
            )
