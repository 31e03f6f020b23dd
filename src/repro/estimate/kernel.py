"""Batched candidate evaluation over a compiled graph.

:class:`BatchKernel` scores a *batch* of candidate partitions against
one :class:`~repro.estimate.compile.CompiledGraph` as flat array
sweeps: compile once, evaluate many.  The results are **bit-identical**
to the memoized reference estimators — the compiler preserves the exact
summation orders of Eq. 1 (channel insertion order, concurrency-tag
grouping), Eqs. 4–5 (assignment insertion order per component) and
Eq. 3 (channel-mapping insertion order per bus), and every arithmetic
step repeats the reference expression shape — so exploration fronts and
served estimates do not change by a single bit when the kernel path is
active.  Both sides add left to right from int 0
(:func:`~repro.core.annotations.left_sum` on the reference side), never
with builtin :func:`sum`, whose float result changed in Python 3.12, so
the identity holds on every Python.

The division of labour with :mod:`repro.estimate.exectime` and friends:

* the kernel scores a partition that maps **every node, in node order**
  (behaviors, then variables, as :attr:`CompiledGraph.node_names
  <repro.estimate.compile.CompiledGraph.node_names>` lists them), the
  shape a built system's partition, a seeded random draw and every
  move keep: :meth:`CompiledGraph.comp_vector
  <repro.estimate.compile.CompiledGraph.comp_vector>` turns its mapping
  into the component vector that every equation reads;
* anything else (another mapping shape, a call cycle, a missing weight,
  an unmapped channel) is *unsupported*: the kernel returns ``None``
  for that candidate and the caller re-evaluates it on the reference
  estimators, which either succeed or raise the precise, user-facing
  error.  The reference path therefore remains the oracle — the kernel
  can only ever agree with it or abstain.

The sweep is plain Python, one candidate at a time: the batches real
callers form (an explore chunk, the one to six reports of a facade
estimate call) are too small for anything vectorised to pay off.  It
reads a *channel table*, built once per distinct channel-to-bus mapping
and cached beside that mapping's per-slot bus vector.  The table holds,
per behavior, one ``(slot, destination, row)`` entry per out-channel,
in Eq. 1's summation order: a port destination points at a sentinel
node whose time is 0.0; ``row`` is the bus's transfer-time matrix (see
:attr:`~repro.estimate.compile.CompiledGraph.tt`) already multiplied by
the slot's transfer count, so one index gives the reference's
``TransferTime``; 0-bit slots share one zero row; and a slot on an
unmapped bus gets a row whose every read abstains.  Rows are shared per
(bus, transfer count), so a table costs about one tuple per channel:
about 0.14 MB and 1.2 ms to build at 1,000 behaviors, 2.7 MB and 15 ms
at 10,000.  Design points and all six report modes, sequential and
concurrent, sweep the same table.  A sweep sets the times of its
order's variables first, then loops over its behaviors only; no entry
of the inner loop is checked for a bus, since the table decided that
when it was built.

Example — compile once, evaluate a batch, cross-check the oracle:

>>> from repro.api import build_system
>>> from repro.estimate.kernel import BatchKernel
>>> from repro.partition.pareto import evaluate_design_point
>>> system = build_system("fuzzy")
>>> kernel = BatchKernel.for_graph(system.slif)
>>> [point] = kernel.evaluate([(system.partition, "all-sw")], ["HW"])
>>> point == evaluate_design_point(
...     system.slif, system.partition, ["HW"], "all-sw")
True

Counters (when :mod:`repro.obs` is enabled): ``kernel.compiles``,
``kernel.batches``, ``kernel.candidates``, ``kernel.unsupported``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.channels import FreqMode
from repro.core.graph import Slif
from repro.core.partition import Partition
from repro.estimate.compile import CompiledGraph, compile_graph
from repro.obs import OBS, span

__all__ = [
    "BatchKernel",
    "compile_graph",
    "kernel_backend",
]


def kernel_backend() -> str:
    """The kernel's backend, as result metadata records it: ``"stdlib"``."""
    return "stdlib"


#: channel mappings whose bus vector and channel table a kernel keeps
_TABLES_KEPT = 16


class _Unsupported(Exception):
    """Internal: this candidate needs the reference path.  Never escapes."""


class _UnmappedRow:
    """The channel-table row of a slot on no bus.

    Eq. 1 reads a slot's row only when its frequency is not zero, and
    the reference then needs the slot's bus and raises, so any read
    abstains.
    """

    __slots__ = ()

    def __getitem__(self, index: int) -> float:
        raise _Unsupported


_UNMAPPED = _UnmappedRow()


def _split_order(
    order: Optional[List[int]], n_behaviors: int
) -> Optional[Tuple[List[int], List[int]]]:
    """``order``'s variables and its behaviors, each in order.

    A variable's time depends on nothing but its own component, so a
    sweep may set every variable's first; the behaviors keep their
    callees-first order.
    """
    if order is None:
        return None
    return (
        [ni for ni in order if ni >= n_behaviors],
        [ni for ni in order if ni < n_behaviors],
    )


class BatchKernel:
    """Evaluate batches of candidate partitions against one compiled graph.

    Construct through :meth:`for_graph`; instances are cheap to keep and
    safe to reuse for any number of batches, but hold no partition state
    — every candidate is read fresh from its
    :class:`~repro.core.partition.Partition` (see
    :meth:`CompiledGraph.comp_vector
    <repro.estimate.compile.CompiledGraph.comp_vector>`).

    Thread safety: evaluation only reads the compiled arrays, so one
    kernel may serve concurrent callers (a session's concurrent sweeps
    and estimates) as long as the underlying graph is not mutated
    mid-call (the contract the reference estimators have too).  Its
    caches of bus vectors, channel tables, table rows and hardware
    vectors are only ever given whole, never-mutated entries or
    replaced outright, so a concurrent caller finds a complete entry or
    none.
    """

    def __init__(self, compiled: CompiledGraph) -> None:
        self.cg = compiled
        # Candidates share almost all their structure: the object-mapping
        # keys are the node names in graph order, the channel mapping is
        # one of very few distinct vectors, and the sorted mapping tuple
        # always uses the same key permutation.  Precompute what is
        # candidate-invariant so the per-candidate work is a handful of
        # C-level passes (see _design_point).
        names = compiled.node_names
        perm = sorted(range(len(names)), key=names.__getitem__)
        self._sorted_keys = tuple(names[j] for j in perm)
        if len(perm) > 1:
            self._perm_values = itemgetter(*perm)
        elif perm:
            self._perm_values = lambda vals: (vals[0],)
        else:
            self._perm_values = lambda vals: ()
        self._size_cols = [
            [row[c] for row in compiled.size]
            for c in range(compiled.n_comps)
        ]
        n_beh = compiled.n_behaviors
        self._design_order = _split_order(compiled.order_design, n_beh)
        self._report_order = _split_order(compiled.order_report, n_beh)
        self._bus_cache: Dict[Tuple[tuple, tuple], Any] = {}
        self._bus_memo: Optional[Tuple[Dict[str, str], Any]] = None
        # Eq. 1 rows shared by every table: one zero row for 0-bit slots
        # and one per (bus, transfer count)
        self._zero_row = [0.0] * ((compiled.n_comps + 1) ** 2)
        self._rows: Dict[Tuple[int, int], List[float]] = {}
        self._hw_cache: Dict[Tuple[str, ...], List[Optional[int]]] = {}

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def for_graph(cls, slif: Slif) -> "BatchKernel":
        """Compile ``slif`` and wrap it in a kernel.

        Every graph compiles; on one with a call cycle the kernel
        abstains from every candidate (see :meth:`evaluate`).
        """
        kernel = cls(compile_graph(slif))
        if OBS.enabled:
            OBS.inc("kernel.compiles")
        return kernel

    # ------------------------------------------------------------------
    # candidate conversion

    def _bus_vector(self, chan_bus: Dict[str, str]) -> Tuple[List[int], list]:
        """Channel→bus dict to its per-slot bus vector and channel table.

        Exploration sweeps reuse a handful of channel mappings across
        thousands of candidates, so both are built once per mapping and
        cached by the mapping's (keys, values) tuples; see
        :meth:`_channel_table`.  Raises :class:`_Unsupported` when a
        channel or bus is unknown (an outcome that is cached too).  A
        slot whose channel the mapping leaves out gets bus ``-1``.
        """
        memo = self._bus_memo
        if memo is not None and memo[0] == chan_bus:
            entry = memo[1]
        else:
            cache_key = (tuple(chan_bus), tuple(chan_bus.values()))
            entry = self._bus_cache.get(cache_key)
            if entry is None:
                bus_of = self.cg.bus_vector(chan_bus)
                entry = False if bus_of is None else (bus_of, self._channel_table(bus_of))
                if len(self._bus_cache) >= _TABLES_KEPT:
                    self._bus_cache = {}
                self._bus_cache[cache_key] = entry
            self._bus_memo = (dict(chan_bus), entry)
        if entry is False:
            raise _Unsupported
        return entry

    def _channel_table(self, bus_of: List[int]) -> List[List[tuple]]:
        """Per behavior, one ``(slot, destination, row)`` per out-channel.

        Entries keep Eq. 1's channel order.  A port destination is the
        sentinel node ``n_nodes``.  ``row[(src_comp + 1) * (n_comps + 1)
        + dst_comp + 1]`` is the channel's ``TransferTime`` for that
        placement: the bus's ``tt`` entry times the slot's transfer
        count, the product the reference computes.  A 0-bit slot reads
        the zero row whatever its bus, since the reference never looks
        its bus up; any other slot on an unmapped bus has the row
        :class:`_UnmappedRow`, whose every read abstains.
        """
        cg = self.cg
        slot_bits, transfers, tt = cg.slot_bits, cg.transfers, cg.tt
        zero, rows = self._zero_row, self._rows
        slot_row: list = []
        for bits, counts, bi in zip(slot_bits, transfers, bus_of):
            if bits == 0:
                slot_row.append(zero)
            elif bi < 0:
                slot_row.append(_UNMAPPED)
            else:
                count = counts[bi]
                row = rows.get((bi, count))
                if row is None:
                    row = [t * count for t in tt[bi]]
                    rows[(bi, count)] = row
                slot_row.append(row)
        sentinel = cg.n_nodes
        dst = [sentinel if d < 0 else d for d in cg.slot_dst]
        entries = list(zip(range(cg.n_slots), dst, slot_row))
        return [entries[lo:hi] for lo, hi in zip(cg.chan_lo, cg.chan_hi)]

    def _hw_components(self, hardware: Sequence[str]) -> List[Optional[int]]:
        """Component indices of the ``hardware`` names (None = unknown)."""
        key = tuple(hardware)
        cis = self._hw_cache.get(key)
        if cis is None:
            comp_index = self.cg.comp_index
            cis = [comp_index.get(name) for name in hardware]
            self._hw_cache[key] = cis
        return cis

    # ------------------------------------------------------------------
    # the sweep (the reference arithmetic, flattened)

    def _sweep(
        self,
        comp_of: List[int],
        table: List[List[tuple]],
        mode_key: str,
        concurrent: bool,
        order: Tuple[List[int], List[int]],
    ) -> List[Any]:
        """Execution time of every node of ``order``, callees first.

        Each step repeats the reference expression for that node —
        ``ict + left_sum(freq * (transfer + dst_time))`` with the
        identical summation order and start value — so the produced
        floats match the memoized recursion bit for bit.  ``order`` is
        a compiled order split by :func:`_split_order`: its variables'
        times are set first, then its behaviors' in order.  ``table`` is
        the channel mapping's :meth:`_channel_table`; ``comp_of`` and
        the returned times end with the port sentinel's entries, ``-1``
        and 0.0.
        """
        cg = self.cg
        ict = cg.ict
        slot_tag = cg.slot_tag
        freq = cg.freq[mode_key]
        span = cg.n_comps + 1
        times: List[Any] = [None] * cg.n_nodes
        times.append(0.0)  # a port's time
        variables, behaviors = order
        for ni in variables:  # a variable's access time on its component
            w = times[ni] = ict[ni][comp_of[ni]]
            if w is None:
                raise _Unsupported
        for ni in behaviors:
            ci = comp_of[ni]
            w = ict[ni][ci]
            if w is None:
                raise _Unsupported  # technology never preprocessed
            base = (ci + 1) * span + 1
            if not concurrent:
                total: Any = 0  # left_sum starts from int 0
                for s, di, row in table[ni]:
                    f = freq[s]
                    if f:
                        total = total + f * (row[base + comp_of[di]] + times[di])
                    else:
                        total = total + 0.0
                times[ni] = w + total
                continue
            # concurrent mode: same-tag groups combine by max (first-seen
            # tag order), untagged channels stay sequential
            seq = 0.0
            groups: Dict[str, float] = {}
            for s, di, row in table[ni]:
                f = freq[s]
                cost = f * (row[base + comp_of[di]] + times[di]) if f else 0.0
                tag = slot_tag[s]
                if tag is None:
                    seq += cost
                else:
                    groups[tag] = max(groups.get(tag, 0.0), cost)
            gsum: Any = 0  # left_sum starts from int 0
            for value in groups.values():
                gsum = gsum + value
            times[ni] = w + (seq + gsum)
        return times

    def _sizes(self, comp_of: List[int]) -> List[Any]:
        """Per-component summed size weights (Eqs. 4–5), in node order."""
        acc: List[Any] = [0] * self.cg.n_comps  # left_sum starts from int 0
        for row, ci in zip(self.cg.size, comp_of):
            w = row[ci]
            if w is None:
                raise _Unsupported
            acc[ci] = acc[ci] + w
        return acc

    def _hw_size(self, comp_of: List[int], hw_cis: List[Optional[int]]) -> Any:
        """Summed hardware size without materialising all components.

        Only the hardware components' totals feed a design point, and
        for component ``c`` the reference accumulation is exactly the
        node-order subsequence of size weights assigned to ``c``
        starting from int 0 — which is what the loop below adds, bit for
        bit.  The reference sums every component, so a weight missing
        anywhere abstains (none is when ``size_complete``).
        """
        cg = self.cg
        if not cg.size_complete and any(
            row[ci] is None for row, ci in zip(cg.size, comp_of)
        ):
            raise _Unsupported
        cols = self._size_cols
        total: Any = 0  # left_sum starts from int 0
        for ci in hw_cis:
            if ci is None:
                total = total + 0.0
                continue
            part: Any = 0  # and so does each component's
            for c, w in zip(comp_of, cols[ci]):
                if c == ci:
                    part = part + w
            total = total + part
        return total

    # ------------------------------------------------------------------
    # design points

    def evaluate(
        self,
        candidates: Sequence[Tuple[Partition, str]],
        hardware: Sequence[str],
    ) -> List[Optional[Any]]:
        """Score a batch of ``(partition, label)`` candidates in one call.

        Returns one :class:`~repro.partition.pareto.DesignPoint` per
        candidate — ``system_time`` from the Eq. 1 sweep (AVG mode,
        sequential, exactly like the reference
        ``evaluate_design_point``), ``hardware_size`` as the summed
        Eq. 4 sizes of the ``hardware`` components — or ``None`` where
        the candidate is unsupported and must be re-evaluated on the
        reference path.  This is the single kernel invocation the
        exploration engine makes per chunk.  On a graph with a call
        cycle every candidate is ``None``.
        """
        if not candidates:
            return []
        if self.cg.order_design is None:
            return [None] * len(candidates)
        from repro.partition.pareto import DesignPoint

        hw_cis = self._hw_components(hardware)
        points: List[Optional[Any]] = []
        for partition, label in candidates:
            try:
                point = self._design_point(partition, label, hw_cis, DesignPoint)
            except _Unsupported:
                point = None
            points.append(point)
        if OBS.enabled:
            OBS.inc("kernel.batches")
            OBS.inc("kernel.candidates", len(points))
            unsupported = points.count(None)
            if unsupported:
                OBS.inc("kernel.unsupported", unsupported)
        return points

    def _design_point(self, partition, label, hw_cis, point_cls):
        """One candidate's design point; raises :class:`_Unsupported`."""
        cg = self.cg
        bv = partition._bv_comp
        comp_of = cg.comp_vector(bv)
        if comp_of is None:
            raise _Unsupported
        _, table = self._bus_vector(partition._chan_bus)
        times = self._sweep(comp_of, table, "avg", False, self._design_order)
        pt = [times[p] for p in cg.processes]
        return point_cls(
            system_time=max(pt) if pt else 0.0,
            hardware_size=self._hw_size(comp_of, hw_cis),
            # the same tuple sorted(mapping.items()) builds, via the
            # precomputed key permutation
            mapping=tuple(
                zip(self._sorted_keys, self._perm_values(list(bv.values())))
            ),
            label=label,
        )

    # ------------------------------------------------------------------
    # full reports (every session estimate)

    def reports(
        self, items: Sequence[Tuple[Partition, FreqMode, bool]]
    ) -> List[Optional[Any]]:
        """Full :class:`~repro.estimate.engine.EstimateReport` per item.

        ``items`` are ``(partition, mode, concurrent)`` triples, each
        scored into what ``Estimator(slif, partition, mode,
        concurrent).report()`` returns (no time constraint).  This is
        how every facade estimate is scored: ``api.estimate`` (one
        item), ``api.estimate_many`` and ``api.partition``'s report.
        The mode-independent half of a report (partition conversion,
        Eqs. 4–6 sizes and I/O, size and pin violations) is computed
        once per distinct partition object in the call; each item then
        costs one Eq. 1 sweep and one bus-load pass, and still gets its
        own dicts and lists.  Unsupported items come back ``None``
        (a mapping not in node order, an incomplete partition, a
        missing weight, a zero-time bitrate source, a call cycle in the
        graph) and the caller re-runs them through the reference
        :class:`~repro.estimate.engine.Estimator`.
        """
        from repro.estimate.bitrate import BusLoad
        from repro.estimate.engine import EstimateReport

        cg = self.cg
        if cg.order_report is None:
            return [None] * len(items)
        slot_src = cg.slot_src
        out: List[Optional[Any]] = []
        shared: Dict[int, Optional[tuple]] = {}
        with span("estimate.report", items=len(items), kernel=True):
            for partition, mode, concurrent in items:
                key = id(partition)
                if key not in shared:
                    shared[key] = self._partition_half(partition)
                half = shared[key]
                if half is None:
                    out.append(None)
                    continue
                comp_of, table, by_bus, sizes, ios, violations = half
                try:
                    times = self._sweep(
                        comp_of, table, mode.value, concurrent, self._report_order
                    )
                    moved = cg.moved[mode.value]
                    bus_loads = {}
                    for k, bus_name in enumerate(cg.bus_names):
                        demand: Any = 0  # left_sum starts from int 0
                        for slot in by_bus[k]:
                            src_time = times[slot_src[slot]]
                            if src_time <= 0.0:
                                raise _Unsupported  # reference raises EstimationError
                            mv = moved[slot]
                            demand = demand + (0.0 if mv == 0.0 else mv / src_time)
                        bus_loads[bus_name] = BusLoad(
                            bus=bus_name, demand=demand, capacity=cg.bus_capacity[k]
                        )
                except _Unsupported:
                    out.append(None)
                    continue
                process_times = {
                    name: times[ni]
                    for name, ni in zip(cg.process_names, cg.processes)
                }
                out.append(
                    EstimateReport(
                        partition_name=partition.name,
                        component_sizes=dict(sizes),
                        component_ios=dict(ios),
                        process_times=process_times,
                        system_time=(
                            max(process_times.values()) if process_times else 0.0
                        ),
                        bus_loads=bus_loads,
                        violations=list(violations),
                    )
                )
        if OBS.enabled:
            OBS.inc("kernel.batches")
            OBS.inc("kernel.candidates", len(items))
            unsupported = out.count(None)
            if unsupported:
                OBS.inc("kernel.unsupported", unsupported)
        return out

    def _partition_half(self, partition: Partition) -> Optional[tuple]:
        """A report's mode-independent half, or None when unsupported.

        ``(comp_of, table, by_bus, sizes, ios, violations)``:
        ``table`` is the channel mapping's :meth:`_channel_table`, and
        ``by_bus[k]`` lists the slots mapped to bus ``k`` in the
        channel-mapping insertion order Eq. 3 sums bitrates in.
        Component constraints are read live, as the reference does.
        """
        from repro.estimate.engine import budget_violations

        cg = self.cg
        chan_bus = partition._chan_bus
        comp_of = cg.comp_vector(partition._bv_comp)
        if comp_of is None or len(chan_bus) != cg.n_slots:
            return None  # another shape, or a channel unmapped
        try:
            bus_of, table = self._bus_vector(chan_bus)
            acc = self._sizes(comp_of)
        except _Unsupported:
            return None
        sizes = dict(zip(cg.comp_names, acc))
        ios = dict(zip(cg.comp_names, map(cg.io, cg.cut_counts(comp_of, bus_of))))
        violations = budget_violations(cg.slif, sizes, ios)
        by_bus: List[List[int]] = [[] for _ in cg.bus_names]
        slot_of = cg.slot_of_channel
        for chan in chan_bus:
            slot = slot_of[chan]
            by_bus[bus_of[slot]].append(slot)
        return comp_of, table, by_bus, sizes, ios, violations
