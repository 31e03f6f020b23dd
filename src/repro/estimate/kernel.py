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

* the kernel handles the **common fast path** — complete, well-annotated
  candidates on an acyclic graph;
* anything else (a call cycle, a missing weight, an unmapped object the
  sweep actually reaches) is *unsupported*: the kernel returns ``None``
  for that candidate and the caller re-evaluates it on the reference
  estimators, which either succeed or raise the precise, user-facing
  error.  The reference path therefore remains the oracle — the kernel
  can only ever agree with it or abstain.

The sweep is plain Python over lists and int indices, one candidate at
a time: the batches real callers form (an explore chunk, the one to six
reports of a facade estimate call) are too small for anything
vectorised to pay off.

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

from repro.core.annotations import left_sum
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


class _Unsupported(Exception):
    """Internal: this candidate needs the reference path.  Never escapes."""


class BatchKernel:
    """Evaluate batches of candidate partitions against one compiled graph.

    Construct through :meth:`for_graph`; instances are cheap to keep and
    safe to reuse for any number of batches, but hold no partition state
    — every candidate is converted fresh from its
    :class:`~repro.core.partition.Partition`.

    Thread safety: evaluation only reads the compiled arrays, so one
    kernel may serve concurrent callers (a session's concurrent sweeps
    and estimates) as long as the underlying graph is not mutated
    mid-call (the contract the reference estimators have too).  Its
    caches of converted channel and hardware vectors are only ever
    given whole, never-mutated entries or replaced outright, so a
    concurrent caller finds a complete entry or none.
    """

    def __init__(self, compiled: CompiledGraph) -> None:
        self.cg = compiled
        # Exploration candidates share almost all their structure: the
        # object-mapping keys are the node names in graph order, the
        # channel mapping is one of very few distinct vectors, and the
        # sorted mapping tuple always uses the same key permutation.
        # Precompute what is candidate-invariant so the per-candidate
        # work is a handful of C-level passes (see _design_point).
        names = compiled.node_names
        self._n_nodes = compiled.n_nodes
        self._node_names = names
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
        self._bus_cache: Dict[Tuple[tuple, tuple], Any] = {}
        self._bus_memo: Optional[Tuple[Dict[str, str], Any]] = None
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

    def _convert(
        self, partition: Partition
    ) -> Tuple[
        List[Tuple[int, int]],
        List[int],
        List[int],
        List[Tuple[int, int]],
    ]:
        """Partition → (assignment pairs, comp-of-node, bus-of-slot, chan pairs).

        ``pairs`` preserves the partition's assignment insertion order —
        the order Eqs. 4–5 sum sizes in.  ``chan_pairs`` preserves the
        channel-mapping insertion order Eq. 3 sums bitrates in.
        """
        cg = self.cg
        node_index = cg.node_index
        comp_index = cg.comp_index
        pairs: List[Tuple[int, int]] = []
        comp_of = [-1] * cg.n_nodes
        for obj, comp in partition.object_mapping().items():
            ni = node_index.get(obj)
            ci = comp_index.get(comp)
            if ni is None or ci is None:
                raise _Unsupported
            pairs.append((ni, ci))
            comp_of[ni] = ci
        slot_of = cg.slot_of_channel
        bus_index = cg.bus_index
        bus_of = [-1] * cg.n_slots
        chan_pairs: List[Tuple[int, int]] = []
        for chan, bus in partition.channel_mapping().items():
            slot = slot_of.get(chan)
            bi = bus_index.get(bus)
            if slot is None or bi is None:
                raise _Unsupported
            bus_of[slot] = bi
            chan_pairs.append((slot, bi))
        return pairs, comp_of, bus_of, chan_pairs

    def _bus_vector(self, chan_bus: Dict[str, str]) -> List[int]:
        """Channel→bus dict to a per-slot bus vector, cached.

        Exploration sweeps reuse a handful of channel mappings across
        thousands of candidates, so the converted vector is cached by
        the mapping's (keys, values) tuples.  Raises
        :class:`_Unsupported` when a channel or bus is unknown (an
        outcome that is cached too).
        """
        memo = self._bus_memo
        if memo is not None and memo[0] == chan_bus:
            bus_of = memo[1]
        else:
            cache_key = (tuple(chan_bus), tuple(chan_bus.values()))
            bus_of = self._bus_cache.get(cache_key)
            if bus_of is None:
                cg = self.cg
                bus_of = [-1] * cg.n_slots
                for chan, bus in chan_bus.items():
                    slot = cg.slot_of_channel.get(chan)
                    bi = cg.bus_index.get(bus)
                    if slot is None or bi is None:
                        bus_of = False
                        break
                    bus_of[slot] = bi
                if len(self._bus_cache) >= 256:
                    self._bus_cache.clear()
                self._bus_cache[cache_key] = bus_of
            self._bus_memo = (dict(chan_bus), bus_of)
        if bus_of is False:
            raise _Unsupported
        return bus_of

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
        bus_of: List[int],
        mode_key: str,
        concurrent: bool,
        order: List[int],
    ) -> List[Any]:
        """Execution time of every node in ``order``, callees first.

        Each step repeats the reference expression for that node —
        ``ict + left_sum(freq * (transfer + dst_time))`` with the
        identical summation order and start value — so the produced
        floats match the memoized recursion bit for bit.
        """
        cg = self.cg
        n_beh = cg.n_behaviors
        ict = cg.ict
        chan_lo, chan_hi = cg.chan_lo, cg.chan_hi
        slot_dst, slot_tag, slot_bits = cg.slot_dst, cg.slot_tag, cg.slot_bits
        transfers, tt = cg.transfers, cg.tt
        freq = cg.freq[mode_key]
        span = cg.n_comps + 1
        times: List[Any] = [None] * cg.n_nodes
        for ni in order:
            ci = comp_of[ni]
            if ci < 0:
                raise _Unsupported  # reached an unmapped object
            w = ict[ni][ci]
            if w is None:
                raise _Unsupported  # technology never preprocessed
            if ni >= n_beh:  # variable: its access time on the component
                times[ni] = w
                continue
            base = (ci + 1) * span + 1
            if not concurrent:
                total: Any = 0  # left_sum starts from int 0
                for s in range(chan_lo[ni], chan_hi[ni]):
                    f = freq[s]
                    if f == 0.0:
                        total = total + 0.0
                        continue
                    di = slot_dst[s]
                    if slot_bits[s] == 0:
                        per_access = 0.0
                    else:
                        bi = bus_of[s]
                        if bi < 0:
                            raise _Unsupported  # channel not mapped to a bus
                        dci = comp_of[di] if di >= 0 else -1
                        per_access = tt[bi][base + dci] * transfers[s][bi]
                    dst_time = times[di] if di >= 0 else 0.0
                    total = total + f * (per_access + dst_time)
                times[ni] = w + total
                continue
            # concurrent mode: same-tag groups combine by max (first-seen
            # tag order), untagged channels stay sequential
            seq = 0.0
            groups: Dict[str, float] = {}
            for s in range(chan_lo[ni], chan_hi[ni]):
                f = freq[s]
                if f == 0.0:
                    cost = 0.0
                else:
                    di = slot_dst[s]
                    if slot_bits[s] == 0:
                        per_access = 0.0
                    else:
                        bi = bus_of[s]
                        if bi < 0:
                            raise _Unsupported
                        dci = comp_of[di] if di >= 0 else -1
                        per_access = tt[bi][base + dci] * transfers[s][bi]
                    dst_time = times[di] if di >= 0 else 0.0
                    cost = f * (per_access + dst_time)
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

    def _sizes(self, pairs: List[Tuple[int, int]]) -> List[Any]:
        """Per-component summed size weights, assignment insertion order."""
        size = self.cg.size
        acc: List[Any] = [0] * self.cg.n_comps  # left_sum starts from int 0
        for ni, ci in pairs:
            w = size[ni][ci]
            if w is None:
                raise _Unsupported
            acc[ci] = acc[ci] + w
        return acc

    def _hardware_size(self, acc: List[Any], hw_cis: List[Optional[int]]) -> Any:
        total: Any = 0  # left_sum starts from int 0
        for ci in hw_cis:
            total = total + (acc[ci] if ci is not None else 0.0)
        return total

    def _fast_hw_size(self, comp_of: List[int], hw_cis: List[Optional[int]]) -> Any:
        """Summed hardware size without materialising all components.

        Only the hardware components' totals feed a design point, and
        for component ``c`` the reference accumulation is exactly the
        insertion-order subsequence of size weights assigned to ``c``
        starting from int 0 — which is what the filtered ``left_sum``
        below computes, bit for bit.  Requires every size weight
        annotated (``size_complete``); otherwise the per-pair None checks
        of :meth:`_sizes` decide abstention exactly like the reference.
        """
        if not self.cg.size_complete:
            return self._hardware_size(
                self._sizes(list(enumerate(comp_of))), hw_cis
            )
        cols = self._size_cols
        total: Any = 0  # left_sum starts from int 0
        for ci in hw_cis:
            if ci is None:
                total = total + 0.0
            else:
                total = total + left_sum(
                    w for c, w in zip(comp_of, cols[ci]) if c == ci
                )
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
        """One candidate's design point; raises :class:`_Unsupported`.

        Exploration candidates assign objects in graph insertion order,
        so their mapping keys *are* ``node_names``: the component vector
        is then a single C-level ``map`` over the mapping values and
        doubles as both the assignment pairs (Eqs. 4–5 order) and
        ``comp_of``.  That shape reads the partition's internal dicts
        directly (no ``object_mapping()`` copies), a read-only peek
        under the same no-mutation-mid-call contract the estimators
        already have.  Any other shape (an incomplete or reordered
        mapping) takes the generic per-candidate conversion.
        """
        cg = self.cg
        bv = partition._bv_comp
        if len(bv) == self._n_nodes and list(bv) == self._node_names:
            values = list(bv.values())
            try:
                comp_of = list(map(cg.comp_index.__getitem__, values))
            except KeyError:
                raise _Unsupported from None
            bus_of = self._bus_vector(partition._chan_bus)
            times = self._sweep(comp_of, bus_of, "avg", False, cg.order_design)
            hardware_size = self._fast_hw_size(comp_of, hw_cis)
            # the same tuple sorted(mapping.items()) builds, via the
            # precomputed key permutation
            mapping = tuple(zip(self._sorted_keys, self._perm_values(values)))
        else:
            pairs, comp_of, bus_of, _ = self._convert(partition)
            acc = self._sizes(pairs)
            times = self._sweep(comp_of, bus_of, "avg", False, cg.order_design)
            hardware_size = self._hardware_size(acc, hw_cis)
            mapping = tuple(sorted(partition.object_mapping().items()))
        pt = [times[p] for p in cg.processes]
        return point_cls(
            system_time=max(pt) if pt else 0.0,
            hardware_size=hardware_size,
            mapping=mapping,
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
        (incomplete partition, missing weight, zero-time bitrate
        source, a call cycle in the graph) and the caller re-runs them
        through the reference :class:`~repro.estimate.engine.Estimator`.
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
                comp_of, bus_of, by_bus, sizes, ios, violations = half
                try:
                    times = self._sweep(
                        comp_of, bus_of, mode.value, concurrent, cg.order_report
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

        ``(comp_of, bus_of, by_bus, sizes, ios, violations)``:
        ``by_bus[k]`` lists the slots mapped to bus ``k`` in the
        channel-mapping insertion order Eq. 3 sums bitrates in.
        Component constraints are read live, as the reference does.
        """
        from repro.estimate.engine import Violation

        cg = self.cg
        try:
            pairs, comp_of, bus_of, chan_pairs = self._convert(partition)
            if len(pairs) != cg.n_nodes or len(chan_pairs) != cg.n_slots:
                raise _Unsupported  # incomplete: reference raises
            acc = self._sizes(pairs)
        except _Unsupported:
            return None
        sizes = dict(zip(cg.comp_names, acc))
        ios = self._component_ios(comp_of, chan_pairs)
        violations = []
        for name in cg.comp_names:
            comp = cg.slif.get_component(name)
            if comp.size_constraint is not None:
                used = sizes[name]
                if used > comp.size_constraint:
                    violations.append(
                        Violation(name, "size", used, comp.size_constraint)
                    )
            limit = getattr(comp, "io_constraint", None)
            if limit is not None:
                used_io = ios[name]
                if used_io > limit:
                    violations.append(Violation(name, "io", used_io, limit))
        by_bus: List[List[int]] = [[] for _ in cg.bus_names]
        for slot, bi in chan_pairs:
            by_bus[bi].append(slot)
        return comp_of, bus_of, by_bus, sizes, ios, violations

    def _component_ios(
        self, comp_of: List[int], chan_pairs: List[Tuple[int, int]]
    ) -> Dict[str, int]:
        """Eq. 6 over the compiled arrays (cut-bus bitwidth sums)."""
        cg = self.cg
        bus_of_slot = dict(chan_pairs)
        cut: List[set] = [set() for _ in range(cg.n_comps)]
        for slot in cg.report_slots:
            bi = bus_of_slot.get(slot)
            if bi is None:
                continue
            src_comp = comp_of[cg.slot_src[slot]]
            di = cg.slot_dst[slot]
            dst_comp = comp_of[di] if di >= 0 else -1
            if src_comp == dst_comp:
                continue  # internal (or fully unmapped): cut for no component
            for comp in (src_comp, dst_comp):
                if comp >= 0:
                    cut[comp].add(bi)
        widths = [cg.slif.get_bus(name).bitwidth for name in cg.bus_names]
        return {
            name: sum(widths[bi] for bi in cut[ci])
            for ci, name in enumerate(cg.comp_names)
        }
