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
  the same slots.

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
from typing import Dict, List, Optional, Tuple

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
    #: slot index of every channel in ``slif.channels`` insertion order
    #: (the order ``all_channel_bitrates`` and the report path walk)
    report_slots: List[int] = field(default_factory=list)

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

    # incidence: inc_slot[inc_lo[n]:inc_lo[n + 1]] are the slots of node
    # n's channels but self-loops, each under its source and under a
    # destination that is not a port; the far endpoint is the slot's
    # other end in slot_src/slot_dst
    inc_lo: List[int] = field(default_factory=list)
    inc_slot: List[int] = field(default_factory=list)
    #: every (node, component) size weight is annotated, so the kernel
    #: never abstains on a size lookup
    size_complete: bool = False
    #: every behavior has a size weight on every processor and every
    #: variable on every component, so no legal move can miss one
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
    n_procs = len(slif.processors)
    cg.covers_pools = cg.size_complete or (
        all(None not in row[:n_procs] for row in cg.size[: cg.n_behaviors])
        and all(None not in row for row in cg.size[cg.n_behaviors:])
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
    cg.report_slots = [cg.slot_of_channel[name] for name in slif.channels]
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
    widths = [slif.get_bus(name).bitwidth for name in cg.bus_names]
    rows = {
        bits: [0 if bits == 0 else math.ceil(bits / w) for w in widths]
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
