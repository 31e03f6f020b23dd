"""Cost function for partitioning, built on incremental estimation.

SpecSyn-style partitioning minimises a weighted sum of *normalized
constraint violations* — a partition that fits every component and pin
budget has cost contribution zero from those terms — plus optional
optimisation objectives (system execution time, component balance).

The function is evaluated through an
:class:`~repro.estimate.incremental.IncrementalEstimator`, on the
compiled graph's integer node and component indices, which are the
move vocabulary of every search: :meth:`PartitionCost.pool` gives the
components a node may move to, read from the one legal-target rule,
:attr:`CompiledGraph.pools <repro.estimate.compile.CompiledGraph.pools>`,
and every search commits and rolls back through the estimator's
``apply_move``/``undo`` pair.  One function,
:meth:`PartitionCost.score_move`, scores every trial move:
:meth:`PartitionCost.try_move` calls it by name, the search layer's one
name-keyed trial, and :meth:`PartitionCost.best_move` over one object's
candidates, as a greedy descent asks.  A trial does not make its move:
the size terms come from the tallies previewed with the moved object's
weights, and the I/O terms from its cut-count delta, which is only
computed when some processor has a pin budget.  Execution time is a
global metric; it is only folded in when ``weights.time > 0`` and a
time constraint is set, and then a trial applies the move with the
pair, evaluates and undoes it, because Eq. 1 needs the moved partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

from repro.core.graph import Slif
from repro.core.partition import Partition
from repro.errors import PartitionError
from repro.estimate.compile import CompiledGraph
from repro.estimate.incremental import IncrementalEstimator
from repro.obs import OBS


@dataclass(frozen=True)
class CostWeights:
    """Relative importance of each cost term.

    ``size``/``io``: weight on normalized constraint violations.
    ``time``: weight on violation of ``time_constraint`` (system time).
    ``balance``: weight on component utilisation imbalance, which steers
    unconstrained designs away from piling everything on one component.
    """

    size: float = 1.0
    io: float = 1.0
    time: float = 1.0
    balance: float = 0.0


def _require_positive(budget: float, what: str) -> None:
    """Violations are normalized by their budget, so it must be positive."""
    if budget <= 0:
        raise PartitionError(
            f"{what} is {budget!r}; the cost function divides violations "
            f"by it, so it must be positive"
        )


class PartitionCost:
    """Evaluates (and incrementally re-evaluates) a partition's cost.

    The instance's estimator, :attr:`inc`, owns the partition's mutation
    during search: moves go through its ``apply_move`` and ``undo``.
    ``compiled`` is the graph's
    :class:`~repro.estimate.compile.CompiledGraph`; pass one to share it
    across many evaluators of the same graph.

    ``budgets`` maps component names to the size budgets to use in
    place of their ``size_constraint`` (``None`` for no budget), so a
    search can run under synthetic budgets without touching the graph.
    Size and pin budgets are read once, here.  A ``budgets`` key that
    names no component raises :class:`~repro.errors.PartitionError`
    naming it, before any search; a term that would divide by a budget
    of zero or below raises one naming the component.

    Evaluations are counted in :attr:`evaluations`, one per
    :meth:`cost` and one per trial move; :meth:`publish` adds them to
    the ``partition.cost.evaluations`` counter, once per search rather
    than once per evaluation.

    On ``fuzzy``, :meth:`best_move` picks the best of :meth:`score_move`
    over the node's :meth:`pool` but its own component, the first in
    pool order on a tie:

    >>> from repro.api import build_system
    >>> system = build_system("fuzzy")
    >>> system.slif.processors["CPU"].size_constraint = 500
    >>> evaluator = PartitionCost(system.slif, system.partition)
    >>> current = evaluator.cost()
    >>> src = evaluator.inc.comp_of[0]
    >>> scores = [
    ...     (evaluator.score_move(0, src, dst), dst)
    ...     for dst in evaluator.pool(0)
    ...     if dst != src
    ... ]
    >>> cost, comp = evaluator.best_move(0, current)
    >>> (cost, comp) == min(scores, key=lambda s: s[0])
    True
    >>> cost < current
    True
    """

    def __init__(
        self,
        slif: Slif,
        partition: Partition,
        weights: Optional[CostWeights] = None,
        time_constraint: Optional[float] = None,
        compiled: Optional[CompiledGraph] = None,
        budgets: Optional[Mapping[str, Optional[float]]] = None,
    ) -> None:
        self.slif = slif
        self.partition = partition
        self.weights = weights or CostWeights()
        self.time_constraint = time_constraint
        self.inc = IncrementalEstimator(slif, partition, compiled=compiled)
        self.evaluations = 0
        cg = self.inc.cg
        budgets = budgets or {}
        unknown = [name for name in budgets if name not in cg.comp_index]
        if unknown:
            raise PartitionError(
                f"budgets name no component of the graph: "
                f"{', '.join(map(repr, unknown))}"
            )
        limits = (
            budgets.get(name, slif.get_component(name).size_constraint)
            for name in cg.comp_names
        )
        #: (component index, budget) of each component with a size budget
        self._limits = [
            (c, limit) for c, limit in enumerate(limits) if limit is not None
        ]
        #: (component index, name, budget) of each processor with a pin
        #: budget; processors come first in component order
        self._pins = [
            (c, name, proc.io_constraint)
            for c, (name, proc) in enumerate(slif.processors.items())
            if proc.io_constraint is not None
        ]
        self._timed = bool(self.weights.time) and time_constraint is not None

    # ------------------------------------------------------------------

    def cost(self) -> float:
        """Cost of the current partition state."""
        self.evaluations += 1
        total = self._terms(self.inc.sizes)
        if self._timed:
            w = self.weights
            time = self.inc.system_time()
            if time > self.time_constraint:
                _require_positive(self.time_constraint, "the time constraint")
                total += w.time * (time - self.time_constraint) / self.time_constraint
        return total

    def _terms(
        self,
        sizes: Sequence[float],
        move: Optional[Tuple[int, int, int]] = None,
    ) -> float:
        """Size, balance and I/O terms of the component ``sizes``; the
        I/O after ``move`` = (node, src, dst) when given."""
        w = self.weights
        total = 0.0
        if w.size or w.balance:
            terms = 0.0
            for comp, limit in self._limits:
                used = sizes[comp]
                if used > limit:
                    if limit <= 0:
                        self._require_positive_budget(comp, limit)
                    terms += w.size * (used - limit) / limit
            if w.balance and len(self._limits) > 1:
                for comp, limit in self._limits:
                    if limit <= 0:
                        self._require_positive_budget(comp, limit)
                utilisations = [sizes[comp] / limit for comp, limit in self._limits]
                terms += w.balance * (max(utilisations) - min(utilisations))
            total += terms
        if w.io:
            total += w.io * (self._io_violations(move) if self._pins else 0.0)
        return total

    def _require_positive_budget(self, comp: int, limit: float) -> None:
        """:func:`_require_positive` for the size budget ``limit`` of
        component index ``comp``."""
        name = self.inc.cg.comp_names[comp]
        _require_positive(limit, f"the size budget of component {name!r}")

    def _io_violations(self, move: Optional[Tuple[int, int, int]] = None) -> float:
        """Normalized Eq. 6 violations; after ``move`` = (node, src, dst)."""
        inc = self.inc
        delta = None if move is None else inc.cut_delta(*move)
        total = 0.0
        for c, name, budget in self._pins:
            used = inc.io(c, delta)
            if used > budget:
                _require_positive(budget, f"the I/O constraint of processor {name!r}")
                total += (used - budget) / budget
        return total

    def floor(self) -> Optional[float]:
        """``0.0`` when no move from a partition costing 0.0 can score
        below it or raise; otherwise ``None``.

        Every size and I/O term is a violation and the balance term a
        spread, so none is negative while the cost weights are not.  The
        floor is unknown (``None``) when a time term is on (a trial then
        applies and undoes its move), a cost weight is negative, a size
        budget is at most 0 while ``weights.size`` or ``weights.balance``
        counts, or a pin budget while ``weights.io`` does (a trial that
        overfills the component then raises), or some object lacks a size
        weight for a component it may move to.
        """
        w = self.weights
        if self._timed:
            return None
        if min(w.size, w.io, w.time, w.balance) < 0:
            return None
        if not self.inc.cg.covers_pools:
            return None
        if (w.size or w.balance) and any(limit <= 0 for _, limit in self._limits):
            return None
        if w.io and any(budget <= 0 for _, _, budget in self._pins):
            return None
        return 0.0

    def publish(self) -> None:
        """Add :attr:`evaluations` to the ``partition.cost.evaluations``
        counter and the estimator's move counts to
        ``estimate.incremental.*``; call once, when the search is done."""
        if OBS.enabled and self.evaluations:
            OBS.inc("partition.cost.evaluations", self.evaluations)
        self.inc.publish()

    # ------------------------------------------------------------------
    # trial moves

    def score_move(self, node: int, src: int, dst: int) -> float:
        """Cost the partition would have after moving node ``node`` from
        component ``src`` to ``dst`` (compiled-graph indices, ``src``
        its current component and ``dst`` another it may move to); no
        net change.

        Every trial move is scored here.  Without a time term the move
        is previewed on the tallies; with one it is applied, evaluated
        and undone.  Either way the result is the same float, and one
        evaluation is counted once the size weights are found.
        """
        inc = self.inc
        if self._timed:
            inc.apply_move(node, dst)
            try:
                return self.cost()
            finally:
                inc.undo(node, src)
        after = inc.preview(node, src, dst)
        self.evaluations += 1
        return self._terms(after, (node, src, dst))

    def try_move(self, obj: str, component: str) -> float:
        """Cost the partition would have after moving ``obj``; no net change.

        :meth:`score_move` by name.  A target ``obj`` may not be mapped
        to raises what :meth:`~repro.core.partition.Partition.assign`
        raises; moving ``obj`` to its own component costs the current
        partition.
        """
        self.partition.require_assignable(obj, component)
        cg = self.inc.cg
        node, dst = cg.node_index[obj], cg.comp_index[component]
        src = self.inc.comp_of[node]
        if src == dst:
            return self.cost()
        return self.score_move(node, src, dst)

    def best_move(self, node: int, bound: float) -> Tuple[float, int]:
        """The best trial move of node ``node``, as ``(cost, component
        index)``; ``(bound, -1)`` when none scores below ``bound``.

        Every other component of the node's :meth:`pool` is scored with
        :meth:`score_move`, in pool order, and a candidate wins when it
        scores more than 1e-12 below the best so far.
        """
        inc = self.inc
        src = inc.comp_of[node]
        best, best_comp = bound, -1
        # pool(node), looked up inline on the hot path
        for dst in inc.cg.pools[node]:
            if dst != src:
                cost = self.score_move(node, src, dst)
                if cost < best - 1e-12:
                    best, best_comp = cost, dst
        return best, best_comp

    # ------------------------------------------------------------------
    # the legal targets of a move, shared by the algorithms

    def pool(self, node: int) -> range:
        """The component indices node ``node`` may be mapped to, its
        :attr:`~repro.estimate.compile.CompiledGraph.pools` entry:
        processors first, the processors for a behavior and every
        component for a variable.  Its own component is among them."""
        return self.inc.cg.pools[node]

    def pass_trials(self, start: int = 0) -> int:
        """How many trial moves a pass over the nodes from ``start`` on
        scores, in O(1): the behaviors come first and share one pool, the
        variables another, and each node has one candidate per component
        of its :meth:`pool` but its own."""
        pools = self.inc.cg.pools
        mid = max(start, self.inc.cg.n_behaviors)
        spans = ((start, mid), (mid, len(pools)))
        return sum((hi - lo) * (len(pools[lo]) - 1) for lo, hi in spans if lo < hi)
