"""Incremental re-estimation under single-object partition moves.

Automated partitioning examines thousands of candidate partitions
(Section 5), and each candidate differs from the last by moving one
object.  Recomputing Eqs. 4–6 from scratch per move costs O(objects);
this module maintains the per-component size tallies and per-(component,
bus) cut-channel counts so a move costs O(degree of the moved object).

The execution-time metric is inherently global (Eq. 1 recurses through
the call structure), so it is recomputed lazily — the memoized evaluator
is invalidated on each move and only re-run when a caller asks for a
time.  Cost functions that only need size/IO (the common inner loop)
never pay for it.

A search that only asks what a move *would* do need not make it:
:meth:`IncrementalEstimator.preview_sizes` and
:meth:`IncrementalEstimator.cut_delta` answer from the tallies plus the
moved object's size weights and incident channels in the graph's
:class:`~repro.estimate.compile.CompiledGraph`, leaving the partition
alone.

Usage::

    inc = IncrementalEstimator(slif, partition)
    record = inc.apply_move("Convolve", "HW")   # mutates the partition
    ...evaluate...
    inc.undo(record)                            # exact rollback
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.core.channels import FreqMode
from repro.core.graph import Slif
from repro.core.partition import Partition
from repro.errors import PartitionError
from repro.estimate.compile import CompiledGraph, compile_graph
from repro.estimate.exectime import ExecTimeEstimator
from repro.estimate.size import object_size
from repro.obs import OBS


@dataclass(frozen=True)
class MoveRecord:
    """Undo token for one applied move."""

    obj: str
    src: str
    dst: str


@dataclass
class IncrementalStats:
    """Telemetry for the move/undo inner loop.

    ``recomputes`` counts the times the lazy execution-time memo was
    actually rebuilt; ``recomputes_avoided`` counts moves whose
    invalidation piggybacked on one already pending — the savings the
    laziness exists for.  :meth:`IncrementalEstimator.publish` adds
    them to the global ``estimate.incremental.*`` counters.
    """

    moves_applied: int = 0
    moves_undone: int = 0
    recomputes: int = 0
    recomputes_avoided: int = 0


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
    each channel's bus is read from the partition once, when the
    estimator is built.  The cut counts are built on the first I/O
    query and kept up to date from then on, so a search whose cost has
    no pin budget never pays for them.
    """

    def __init__(
        self,
        slif: Slif,
        partition: Partition,
        mode: FreqMode = FreqMode.AVG,
        compiled: Optional[CompiledGraph] = None,
    ) -> None:
        partition.require_complete()
        if compiled is None:
            compiled = compile_graph(slif)
        elif compiled.slif is not slif:
            raise PartitionError("compiled graph was built for a different graph")
        self.slif = slif
        self.partition = partition
        self.cg = compiled
        self._chan_bus = partition.channel_mapping()
        self._exec = ExecTimeEstimator(slif, partition, mode)
        self._exec_dirty = False
        self.stats = IncrementalStats()
        self._sizes: Dict[str, float] = {}
        # cut channel counts: (component, bus) -> number of cut channels
        self._cut_counts: Optional[Dict[Tuple[str, str], int]] = None
        self._rebuild()

    # ------------------------------------------------------------------
    # construction of the tallies

    def _rebuild(self) -> None:
        cg = self.cg
        node_index, comp_index, size = cg.node_index, cg.comp_index, cg.size
        sizes = self._sizes = {name: 0.0 for name in cg.comp_names}
        for obj, comp in self.partition.object_mapping().items():
            try:
                w = size[node_index[obj]][comp_index[comp]]
            except KeyError:
                w = None
            sizes[comp] += w if w is not None else object_size(self.slif, obj, comp)
        self._cut_counts = None

    def _move_weights(self, obj: str, src: str, dst: str) -> Tuple[float, float]:
        """``GetBvSize`` of ``obj`` on ``src`` and on ``dst``.

        Read off the compiled size table.  A weight the table lacks
        (never annotated, or an unknown name) is looked up the reference
        way, ``src`` first, so it raises exactly what
        :func:`~repro.estimate.size.object_size` raises for it.
        """
        cg = self.cg
        try:
            row = cg.size[cg.node_index[obj]]
            w_src, w_dst = row[cg.comp_index[src]], row[cg.comp_index[dst]]
        except KeyError:
            w_src = w_dst = None
        if w_src is None or w_dst is None:
            return object_size(self.slif, obj, src), object_size(self.slif, obj, dst)
        return w_src, w_dst

    def _counts(self) -> Dict[Tuple[str, str], int]:
        """The cut counts, counted from the partition on first use."""
        if self._cut_counts is None:
            counts: Dict[Tuple[str, str], int] = {}
            comp_of = self.partition.object_mapping().get  # ports: None
            for ch in self.slif.channels.values():
                src_comp = comp_of(ch.src)
                dst_comp = comp_of(ch.dst)
                if src_comp == dst_comp:
                    continue  # internal (or a self-loop): cut for no component
                bus = self._chan_bus[ch.name]
                for comp in (src_comp, dst_comp):
                    if comp is not None:
                        key = (comp, bus)
                        counts[key] = counts.get(key, 0) + 1
            self._cut_counts = counts
        return self._cut_counts

    # ------------------------------------------------------------------
    # queries

    def component_size(self, component: str) -> float:
        """Current Eq. 4/5 size of ``component`` (O(1))."""
        try:
            return self._sizes[component]
        except KeyError:
            raise PartitionError(f"unknown component {component!r}") from None

    def component_sizes(self) -> Dict[str, float]:
        return dict(self._sizes)

    def component_io(
        self,
        component: str,
        delta: Optional[Mapping[Tuple[str, str], int]] = None,
    ) -> int:
        """Current Eq. 6 I/O of ``component`` (O(buses)).

        With ``delta`` from :meth:`cut_delta`, the I/O it would have
        after that move.
        """
        counts = self._counts()
        total = 0
        for bus_name, bus in self.slif.buses.items():
            key = (component, bus_name)
            count = counts.get(key, 0)
            if delta:
                count += delta.get(key, 0)
            if count > 0:
                total += bus.bitwidth
        return total

    def component_ios(self) -> Dict[str, int]:
        return {name: self.component_io(name) for name in self._sizes}

    @property
    def exec_stats(self):
        """Memo telemetry of the lazily-refreshed exectime evaluator."""
        return self._exec.stats

    def _refresh_exec(self) -> None:
        if self._exec_dirty:
            self._exec.invalidate()
            self._exec_dirty = False
            self.stats.recomputes += 1

    def execution_time(self, behavior: str) -> float:
        """Eq. 1, recomputed lazily after moves."""
        self._refresh_exec()
        return self._exec.exectime(behavior)

    def system_time(self) -> float:
        self._refresh_exec()
        return self._exec.system_time()

    # ------------------------------------------------------------------
    # move previews (the partition is left alone)

    def preview_sizes(
        self, obj: str, component: str
    ) -> Tuple[str, Dict[str, float]]:
        """``(current component, sizes after the move)`` of moving ``obj``.

        Neither the partition nor the cut counts change.  The two
        touched size tallies are left as :meth:`apply_move` followed by
        :meth:`undo` would leave them: with non-integral weights
        ``(a - w) + w`` is not always ``a``, and a search scored this way
        must see the same floats as one that applied and undid each
        trial move.
        """
        src = self.partition.get_bv_comp(obj)
        sizes = self._sizes
        if src == component:
            return src, dict(sizes)
        w_src, w_dst = self._move_weights(obj, src, component)
        after = dict(sizes)
        after[src] = sizes[src] - w_src
        after[component] = sizes[component] + w_dst
        sizes[src] = after[src] + w_src
        sizes[component] = after[component] - w_dst
        return src, after

    def cut_delta(self, obj: str, src: str, dst: str) -> Dict[Tuple[str, str], int]:
        """Cut-count changes, per ``(component, bus)``, of moving ``obj``
        from ``src`` to ``dst``.

        Only channels incident to ``obj`` can change, and only with
        respect to ``src`` and ``dst``.
        """
        cg = self.cg
        node = cg.node_index[obj]
        names, slot_src, slot_dst = cg.node_names, cg.slot_src, cg.slot_dst
        comp_of = self.partition.maybe_bv_comp
        chan_bus = self._chan_bus
        delta: Dict[Tuple[str, str], int] = {}
        for s in cg.inc_slot[cg.inc_lo[node]:cg.inc_lo[node + 1]]:
            bus = chan_bus[cg.slot_name[s]]
            other = slot_dst[s] if slot_src[s] == node else slot_src[s]
            other_comp = comp_of(names[other]) if other >= 0 else None  # a port
            # leaving src cuts a channel internal to src and un-cuts the rest
            key = (src, bus)
            delta[key] = delta.get(key, 0) + (1 if other_comp == src else -1)
            # arriving at dst makes a channel to dst internal and cuts the rest
            key = (dst, bus)
            delta[key] = delta.get(key, 0) + (-1 if other_comp == dst else 1)
        return delta

    # ------------------------------------------------------------------
    # moves

    def apply_move(self, obj: str, component: str) -> MoveRecord:
        """Move ``obj`` to ``component``, updating all tallies.

        Returns an undo token.  Moving an object to its current
        component is a no-op move (still returns a valid token).

        >>> from repro.api import build_system
        >>> from repro.estimate.incremental import IncrementalEstimator
        >>> system = build_system("vol")
        >>> inc = IncrementalEstimator(system.slif, system.partition)
        >>> before = inc.component_sizes()
        >>> record = inc.apply_move("Calibrate", "HW")
        >>> record
        MoveRecord(obj='Calibrate', src='CPU', dst='HW')
        >>> inc.component_size("CPU") < before["CPU"]
        True
        >>> inc.undo(record)
        >>> inc.component_sizes() == before
        True
        """
        part = self.partition
        src = part.get_bv_comp(obj)
        record = MoveRecord(obj, src, component)
        if src == component:
            return record
        self._shift(obj, src, component)
        part.move(obj, component)
        self._mark_dirty()
        self.stats.moves_applied += 1
        return record

    def undo(self, record: MoveRecord) -> None:
        """Exactly reverse a move made by :meth:`apply_move`.

        >>> from repro.api import build_system
        >>> from repro.estimate.incremental import IncrementalEstimator
        >>> system = build_system("vol")
        >>> inc = IncrementalEstimator(system.slif, system.partition)
        >>> inc.undo(inc.apply_move("Median3", "HW"))
        >>> system.partition.get_bv_comp("Median3")
        'CPU'
        """
        if record.src == record.dst:
            return
        self._shift(record.obj, record.dst, record.src)
        self.partition.move(record.obj, record.src)
        self._mark_dirty()
        self.stats.moves_undone += 1

    def _mark_dirty(self) -> None:
        if self._exec_dirty:
            # an invalidation is already pending; this move rides along
            self.stats.recomputes_avoided += 1
        else:
            self._exec_dirty = True

    def publish(self) -> None:
        """Add :attr:`stats` to the ``estimate.incremental.*`` counters;
        call once, when the search is done."""
        if OBS.enabled:
            for name, count in asdict(self.stats).items():
                if count:
                    OBS.inc(f"estimate.incremental.{name}", count)

    def _shift(self, obj: str, src: str, dst: str) -> None:
        """Update tallies for moving ``obj`` from ``src`` to ``dst``.

        Only the two involved components' tallies can change: sizes move
        the object's weight; cut counts change as :meth:`cut_delta` says.
        Both weights are looked up before anything changes, so a missing
        annotation leaves the tallies intact.
        """
        w_src, w_dst = self._move_weights(obj, src, dst)
        self._sizes[src] -= w_src
        self._sizes[dst] += w_dst
        counts = self._cut_counts
        if counts is not None:
            for key, change in self.cut_delta(obj, src, dst).items():
                counts[key] = counts.get(key, 0) + change

    # ------------------------------------------------------------------
    # verification (used by property tests)

    def verify_consistency(self) -> None:
        """Assert the incremental tallies match a from-scratch rebuild."""
        from repro.estimate.io import all_component_ios
        from repro.estimate.size import all_component_sizes

        fresh_sizes = all_component_sizes(self.slif, self.partition)
        for comp, size in fresh_sizes.items():
            got = self._sizes.get(comp, 0.0)
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
        for key, count in self._counts().items():
            if count < 0:
                raise AssertionError(f"negative cut count for {key}: {count}")
