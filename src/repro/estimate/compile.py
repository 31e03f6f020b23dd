"""One-shot compilation of an annotated access graph to flat arrays.

The memoized estimators in :mod:`repro.estimate.exectime` walk the graph
through Python dicts and objects on every candidate partition.  That is
fine for one estimate; it is the dominant cost of an exploration sweep
that scores thousands of candidates against one immutable graph.  This
module performs the graph traversal **once**, producing a
:class:`CompiledGraph` — integer-indexed flat arrays that the batch
kernel (:mod:`repro.estimate.kernel`) can sweep per candidate without
touching a single graph object:

* behaviors and variables get dense node indices (behaviors first), and
  the behavior→channel adjacency becomes a CSR layout: ``chan_lo[b]`` /
  ``chan_hi[b]`` bound the out-channel *slots* of behavior ``b``, in the
  graph's insertion order — the exact order Eq. 1's communication sum
  visits them, which is what keeps kernel results bit-identical to the
  memoized recursion;
* per-slot vectors carry each channel's access frequency (one vector
  per :class:`~repro.core.channels.FreqMode`), destination node index
  (``-1`` for ports), bits, concurrency tag and the ``freq * bits``
  product Eq. 2 needs;
* per-node × per-component tables hold the ``ict`` and ``size`` weights
  (``None`` where a technology was never preprocessed — the kernel
  treats evaluating such an entry as *unsupported* and the caller falls
  back to the reference estimator, which raises the precise
  :class:`~repro.errors.EstimationError`);
* per-bus lookup tables give the per-transfer time for every (source
  component, destination component) placement — including the
  ``pair_times`` extension and the port/unmapped column — plus the
  Eq. 1 ceiling-division transfer count per (slot, bus);
* each node's incident channels, for scoring single-object partition
  moves (:mod:`repro.estimate.incremental`): another CSR layout over
  the same slots;
* each node's pool, the component indices it may move to
  (:attr:`CompiledGraph.pools`): the one legal-target rule, which move
  scoring reads and the incremental estimator's moves check.

A partition enters the compiled side as two vectors: each node's
component index (:meth:`CompiledGraph.comp_vector`, read from an object
mapping in node order, then the port sentinel's ``-1``) and each slot's
bus index (:meth:`CompiledGraph.bus_vector`).  Eq. 6 is one tally over them,
:meth:`CompiledGraph.cut_counts`, read by :meth:`CompiledGraph.io`; the
kernel's reports count it afresh and the incremental estimator keeps it
up to date across moves.

Evaluation order is resolved at compile time too: a reverse-topological
order over the nodes reachable from the system's processes (and, for
full reports, from every channel source), callees before callers, so a
single forward sweep reproduces the recursion.  One DFS emits both:
the design order is the prefix it emits from the processes.  A call
cycle anywhere on that walk means no such order exists: both orders
stay ``None``, the kernel abstains from every candidate, and callers
run the memoized path, which reports the cycle with its usual
:class:`~repro.errors.RecursionCycleError` diagnostics.  Every other
table is built all the same, so move scoring works on any graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.graph import Slif


@dataclass
class CompiledGraph:
    """Flat-array form of one annotated graph (see module docstring).

    Immutable by convention: the compiler builds it once and the kernel
    only reads it.  ``slif`` is retained for names and for *live* reads
    of component constraints, so a report sees the budgets the graph
    has when it is made, not when the graph was compiled.
    """

    slif: Slif

    # node space: behaviors [0, n_behaviors), then variables
    node_names: List[str] = field(default_factory=list)
    node_index: Dict[str, int] = field(default_factory=dict)
    n_behaviors: int = 0

    # component space: processors then memories, insertion order
    comp_names: List[str] = field(default_factory=list)
    comp_index: Dict[str, int] = field(default_factory=dict)

    # bus space, insertion order
    bus_names: List[str] = field(default_factory=list)
    bus_index: Dict[str, int] = field(default_factory=dict)

    # per-node weight tables: weights[node][comp] is the float weight or
    # None when that technology was never annotated on the node
    ict: List[List[Optional[float]]] = field(default_factory=list)
    size: List[List[Optional[float]]] = field(default_factory=list)

    # CSR adjacency: slots [chan_lo[b], chan_hi[b]) are behavior b's
    # out-channels in graph insertion order
    chan_lo: List[int] = field(default_factory=list)
    chan_hi: List[int] = field(default_factory=list)
    slot_src: List[int] = field(default_factory=list)
    slot_dst: List[int] = field(default_factory=list)      # -1 = port
    slot_bits: List[int] = field(default_factory=list)
    slot_tag: List[Optional[str]] = field(default_factory=list)
    slot_name: List[str] = field(default_factory=list)
    slot_of_channel: Dict[str, int] = field(default_factory=dict)

    # per-mode per-slot vectors
    freq: Dict[str, List[float]] = field(default_factory=dict)
    moved: Dict[str, List[float]] = field(default_factory=dict)  # freq*bits

    # per-bus tables
    #: tt[bus][(src_comp+1) * (n_comps+1) + (dst_comp+1)] — per-transfer
    #: time for that endpoint placement (component index -1 = port or
    #: unmapped endpoint)
    tt: List[List[float]] = field(default_factory=list)
    #: transfers[slot][bus] = ceil(bits / bitwidth); 0 rows for 0-bit slots
    transfers: List[List[int]] = field(default_factory=list)
    bus_capacity: List[float] = field(default_factory=list)
    bus_width: List[int] = field(default_factory=list)

    # incidence: inc_slot[inc_lo[n]:inc_lo[n + 1]] are the slots of node
    # n's channels but self-loops, each under its source and under a
    # destination that is not a port; the far endpoint is the slot's
    # other end in slot_src/slot_dst
    inc_lo: List[int] = field(default_factory=list)
    inc_slot: List[int] = field(default_factory=list)
    #: every (node, component) size weight is annotated, so the kernel
    #: never abstains on a size lookup
    size_complete: bool = False
    #: the legal targets of a move, by node index: the component indices
    #: the node may be mapped to, processors first, so each starts at 0
    #: (the processors for a behavior, every component for a variable);
    #: each kind shares one ``range``
    pools: List[range] = field(default_factory=list)
    #: every node has a size weight on every component of its pool, so
    #: no legal move can miss one
    covers_pools: bool = False

    # evaluation orders (callees before callers); None on a call cycle
    processes: List[int] = field(default_factory=list)
    process_names: List[str] = field(default_factory=list)
    order_design: Optional[List[int]] = None
    order_report: Optional[List[int]] = None

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    @property
    def n_comps(self) -> int:
        return len(self.comp_names)

    @property
    def n_slots(self) -> int:
        return len(self.slot_dst)

    def comp_vector(self, bv_comp: Mapping[str, str]) -> Optional[List[int]]:
        """Each node's component index under the object mapping
        ``bv_comp``, then the port sentinel's ``-1``; ``None`` unless it
        maps every node, in node order, to a component the graph has.

        One C-level ``map`` over the mapping's values, shared by the
        batch kernel and the incremental estimator.  The shape it
        accepts is the one a built system's partition, a seeded random
        draw and every move keep, and node order is the insertion order
        Eqs. 4–5 sum sizes in, so the vector also gives the assignment
        order.
        """
        if len(bv_comp) != self.n_nodes or list(bv_comp) != self.node_names:
            return None
        try:
            comp_of = list(map(self.comp_index.__getitem__, bv_comp.values()))
        except KeyError:
            return None
        comp_of.append(-1)
        return comp_of

    def bus_vector(self, chan_bus: Mapping[str, str]) -> Optional[List[int]]:
        """Each slot's bus index under the channel mapping ``chan_bus``
        (``-1`` where it maps none); ``None`` when it names a channel or
        bus the graph lacks."""
        bus_of = [-1] * self.n_slots
        slot_of, bus_index = self.slot_of_channel, self.bus_index
        for chan, bus in chan_bus.items():
            slot = slot_of.get(chan)
            bi = bus_index.get(bus)
            if slot is None or bi is None:
                return None
            bus_of[slot] = bi
        return bus_of

    def cut_counts(
        self, comp_of: Sequence[int], bus_of: Sequence[int]
    ) -> List[List[int]]:
        """Eq. 6's cut tally of a complete partition: ``counts[c][b]``
        channels on bus ``b`` are cut for component ``c``.

        ``comp_of`` is each node's component index followed by the port
        sentinel's ``-1``, which a port destination (``-1``) reads as
        ``comp_of[-1]``.  A channel is cut for each endpoint's component
        when the two differ; a port is inside none.
        """
        counts = [[0] * len(self.bus_names) for _ in self.comp_names]
        for a, d, b in zip(self.slot_src, self.slot_dst, bus_of):
            src, dst = comp_of[a], comp_of[d]
            if src != dst:
                counts[src][b] += 1
                if dst >= 0:
                    counts[dst][b] += 1
        return counts

    def io(self, cuts: Sequence[int]) -> int:
        """Eq. 6: the summed widths of the buses one component's
        :meth:`cut_counts` row counts a cut channel on."""
        return sum(w for w, n in zip(self.bus_width, cuts) if n > 0)


def _evaluation_order(cg: CompiledGraph) -> Optional[Tuple[List[int], int]]:
    """Callees-first order of the nodes reachable from the processes,
    continued to those reachable from every other channel source.

    One iterative DFS postorder with list state: the processes are its
    first roots, so the nodes emitted before the first other source is
    visited are exactly the design order, and the whole emission is the
    report order.  Returns ``(order, length of the design prefix)``, or
    ``None`` on a cycle — the memoized estimator owns recursion
    diagnostics.
    """
    ACTIVE, DONE = 1, 2
    n_beh = cg.n_behaviors
    chan_lo, chan_hi, slot_dst = cg.chan_lo, cg.chan_hi, cg.slot_dst
    state = [0] * cg.n_nodes
    order: List[int] = []

    def visit(root: int) -> bool:
        """Emit ``root``'s unvisited callees and then it; False on a cycle."""
        state[root] = ACTIVE
        stack: List[Tuple[int, int]] = []
        node, s, hi = root, chan_lo[root], chan_hi[root]
        while True:
            while s < hi:
                child = slot_dst[s]
                s += 1
                if child < 0:
                    continue  # a port
                mark = state[child]
                if mark == DONE:
                    continue
                if mark == ACTIVE:
                    return False
                if child >= n_beh:  # a variable depends on nothing
                    state[child] = DONE
                    order.append(child)
                    continue
                stack.append((node, s))
                state[child] = ACTIVE
                node, s, hi = child, chan_lo[child], chan_hi[child]
            state[node] = DONE
            order.append(node)
            if not stack:
                return True
            node, s = stack.pop()
            hi = chan_hi[node]

    for root in cg.processes:
        if state[root] != DONE and not visit(root):
            return None
    n_design = len(order)
    # every behavior with an out-channel is some channel's source
    for b in range(n_beh):
        if state[b] != DONE and chan_hi[b] > chan_lo[b] and not visit(b):
            return None
    return order, n_design


def _incidence(cg: CompiledGraph) -> None:
    """Fill ``inc_lo``/``inc_slot`` by a counting sort of the slots.

    It allocates no per-node lists, and ``inc_slot`` reuses
    ``slot_of_channel``'s ints.
    """
    src, dst = cg.slot_src, cg.slot_dst
    degree = [0] * cg.n_nodes
    for a, b in zip(src, dst):
        if a != b:  # moving both endpoints at once never changes a cut
            degree[a] += 1
            if b >= 0:
                degree[b] += 1
    cg.inc_lo = lo = [0, *accumulate(degree)]
    free = lo[:-1]  # each node's next unfilled entry
    slots = cg.inc_slot = [0] * lo[-1]
    for s, a, b in zip(cg.slot_of_channel.values(), src, dst):
        if a != b:
            slots[free[a]] = s
            free[a] += 1
            if b >= 0:
                slots[free[b]] = s
                free[b] += 1


def compile_graph(slif: Slif) -> CompiledGraph:
    """Flatten ``slif`` into a :class:`CompiledGraph` (one-shot).

    Pure read: the graph is not modified and no partition is consulted —
    everything partition-dependent stays a per-candidate input of the
    kernel sweep.
    """
    cg = CompiledGraph(slif=slif)

    cg.node_names = list(slif.behaviors) + list(slif.variables)
    cg.node_index = {name: i for i, name in enumerate(cg.node_names)}
    cg.n_behaviors = len(slif.behaviors)

    cg.comp_names = list(slif.processors) + list(slif.memories)
    cg.comp_index = {name: i for i, name in enumerate(cg.comp_names)}
    technologies = [
        slif.get_component(name).technology.name for name in cg.comp_names
    ]
    nodes = list(slif.behaviors.values()) + list(slif.variables.values())
    cg.ict = [node.ict.row(technologies) for node in nodes]
    cg.size = [node.size.row(technologies) for node in nodes]
    cg.size_complete = all(w is not None for row in cg.size for w in row)
    # behaviors may go to any processor, variables to any component
    n_procs, n_vars = len(slif.processors), len(slif.variables)
    cg.pools = [range(n_procs)] * cg.n_behaviors + [range(cg.n_comps)] * n_vars
    cg.covers_pools = cg.size_complete or all(
        None not in row[: len(pool)] for row, pool in zip(cg.size, cg.pools)
    )

    # CSR adjacency over out-channels, insertion order per behavior
    channels = []
    for b, bname in enumerate(slif.behaviors):
        out = slif.out_channels(bname)
        cg.chan_lo.append(len(channels))
        channels += out
        cg.chan_hi.append(len(channels))
        cg.slot_src += [b] * len(out)
    node_index = cg.node_index
    cg.slot_dst = [node_index.get(ch.dst, -1) for ch in channels]
    cg.slot_bits = [ch.bits for ch in channels]
    cg.slot_tag = [ch.tag for ch in channels]
    cg.slot_name = [ch.name for ch in channels]
    cg.slot_of_channel = {name: s for s, name in enumerate(cg.slot_name)}
    # Channel.frequency() per mode, read straight off the fields
    cg.freq = {
        "avg": [float(ch.accfreq) for ch in channels],
        "min": [float(ch.accmin) for ch in channels],
        "max": [float(ch.accmax) for ch in channels],
    }
    cg.moved = {
        mode: [f * bits for f, bits in zip(freqs, cg.slot_bits)]
        for mode, freqs in cg.freq.items()
    }
    _incidence(cg)

    # per-bus transfer-time matrices over (src comp, dst comp) incl. the
    # port/unmapped column at index 0, and per-(slot, bus) transfer counts
    cg.bus_names = list(slif.buses)
    cg.bus_index = {name: i for i, name in enumerate(cg.bus_names)}
    span = cg.n_comps + 1
    for bus_name in cg.bus_names:
        bus = slif.get_bus(bus_name)
        matrix = []
        for si in range(-1, cg.n_comps):
            src_tech = technologies[si] if si >= 0 else None
            for di in range(-1, cg.n_comps):
                dst_tech = technologies[di] if di >= 0 else None
                same = si == di and si >= 0
                if bus.pair_times:
                    matrix.append(bus.transfer_time(same, src_tech, dst_tech))
                else:
                    matrix.append(bus.transfer_time(same))
        assert len(matrix) == span * span
        cg.tt.append(matrix)
        cg.bus_capacity.append(
            float("inf") if bus.td == 0.0 else bus.bitwidth / bus.td
        )
    # slots of one bit width share their (read-only) row
    cg.bus_width = [slif.get_bus(name).bitwidth for name in cg.bus_names]
    rows = {
        bits: [0 if bits == 0 else math.ceil(bits / w) for w in cg.bus_width]
        for bits in set(cg.slot_bits)
    }
    cg.transfers = [rows[bits] for bits in cg.slot_bits]

    # evaluation orders: design points need everything reachable from
    # the processes; full reports also need every channel source (the
    # bitrate pass divides by Exectime(c.src) for every channel)
    processes = slif.processes()
    cg.processes = [cg.node_index[p.name] for p in processes]
    cg.process_names = [p.name for p in processes]
    orders = _evaluation_order(cg)
    if orders is not None:
        order, n_design = orders
        cg.order_design = order[:n_design]
        cg.order_report = order
    return cg
