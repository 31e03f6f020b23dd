"""Cost function for partitioning, built on incremental estimation.

SpecSyn-style partitioning minimises a weighted sum of *normalized
constraint violations* — a partition that fits every component and pin
budget has cost contribution zero from those terms — plus optional
optimisation objectives (system execution time, component balance).

The function is evaluated through an
:class:`~repro.estimate.incremental.IncrementalEstimator`.  Scoring a
candidate move with :meth:`PartitionCost.try_move` does not make it:
the size terms come from the tallies plus the moved object's weights,
and the I/O terms from its cut-count delta, which is only computed when
some processor has a pin budget.  Execution time is a global metric; it
is only folded in when ``weights.time > 0`` and a time constraint is
set, and then ``try_move`` applies the move, evaluates and undoes it,
because Eq. 1 needs the moved partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from repro.core.graph import Slif
from repro.core.partition import Partition
from repro.errors import PartitionError
from repro.estimate.incremental import IncrementalEstimator, MoveIndex, MoveRecord
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

    The instance owns the partition's mutation during search: use
    :meth:`apply_move`, :meth:`undo` and :meth:`try_move`.  ``index`` is
    the graph's :class:`~repro.estimate.incremental.MoveIndex`; pass one
    to share it across many evaluators of the same graph.

    ``budgets`` maps component names to the size budgets to use in
    place of their ``size_constraint`` (``None`` for no budget), so a
    search can run under synthetic budgets without touching the graph.
    Budgets are read once, here.

    Evaluations are counted in :attr:`evaluations`; :meth:`publish`
    adds them to the ``partition.cost.evaluations`` counter, once per
    search rather than once per evaluation.
    """

    def __init__(
        self,
        slif: Slif,
        partition: Partition,
        weights: Optional[CostWeights] = None,
        time_constraint: Optional[float] = None,
        index: Optional[MoveIndex] = None,
        budgets: Optional[Mapping[str, Optional[float]]] = None,
    ) -> None:
        self.slif = slif
        self.partition = partition
        self.weights = weights or CostWeights()
        self.time_constraint = time_constraint
        self.inc = IncrementalEstimator(slif, partition, index=index)
        self.evaluations = 0
        budgets = budgets or {}
        self._budgets = [
            (name, budgets.get(name, slif.get_component(name).size_constraint))
            for name in self.inc.index.components
        ]
        self._behavior_pool = list(slif.processors)
        self._variable_pool = list(slif.processors) + list(slif.memories)

    # ------------------------------------------------------------------

    def cost(self) -> float:
        """Cost of the current partition state."""
        self.evaluations += 1
        total = self._terms(self.inc.component_sizes())
        w = self.weights
        if w.time and self.time_constraint is not None:
            time = self.inc.system_time()
            if time > self.time_constraint:
                _require_positive(self.time_constraint, "the time constraint")
                total += w.time * (time - self.time_constraint) / self.time_constraint
        return total

    def _terms(
        self,
        sizes: Mapping[str, float],
        move: Optional[Tuple[str, str, str]] = None,
    ) -> float:
        """Size, balance and I/O terms; of ``move``'s result when given."""
        w = self.weights
        total = 0.0
        if w.size or w.balance:
            total += self._size_terms(sizes)
        if w.io:
            total += w.io * self._io_violations(move)
        return total

    def _size_terms(self, sizes: Mapping[str, float]) -> float:
        w = self.weights
        total = 0.0
        utilisations: List[float] = []
        for name, limit in self._budgets:
            used = sizes[name]
            if limit:
                if used > limit:
                    total += w.size * (used - limit) / limit
                utilisations.append(used / limit)
        if w.balance and len(utilisations) > 1:
            spread = max(utilisations) - min(utilisations)
            total += w.balance * spread
        return total

    def _io_violations(self, move: Optional[Tuple[str, str, str]] = None) -> float:
        """Normalized Eq. 6 violations; after ``move`` = (obj, src, dst).

        The move's cut-count delta is only computed once a processor
        with a pin budget needs it.
        """
        inc = self.inc
        delta = None
        total = 0.0
        for name, proc in self.slif.processors.items():
            budget = proc.io_constraint
            if budget is None:
                continue
            if move is not None and delta is None:
                delta = inc.cut_delta(*move)
            used = inc.component_io(name, delta)
            if used > budget:
                _require_positive(budget, f"the I/O constraint of processor {name!r}")
                total += (used - budget) / budget
        return total

    def floor(self) -> Optional[float]:
        """``0.0`` when no move from a partition costing 0.0 can score
        below it or raise; otherwise ``None``.

        Every size and I/O term is a violation and the balance term a
        spread, so none is negative while the cost weights and size
        budgets are not.  The floor is unknown (``None``) when a time
        term is on (a trial then applies and undoes its move), a cost
        weight or size budget is negative, a pin budget is at most 0
        while ``weights.io`` counts (a trial that cuts a channel raises),
        or some object lacks a size weight for a component it may move to.
        """
        w = self.weights
        if w.time and self.time_constraint is not None:
            return None
        if min(w.size, w.io, w.time, w.balance) < 0:
            return None
        if not self.inc.index.covers_pools:
            return None
        if any(limit is not None and limit < 0 for _, limit in self._budgets):
            return None
        if w.io and any(
            proc.io_constraint is not None and proc.io_constraint <= 0
            for proc in self.slif.processors.values()
        ):
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
    # move plumbing

    def apply_move(self, obj: str, component: str) -> MoveRecord:
        return self.inc.apply_move(obj, component)

    def undo(self, record: MoveRecord) -> None:
        self.inc.undo(record)

    def try_move(self, obj: str, component: str) -> float:
        """Cost the partition would have after moving ``obj``; no net change.

        Without a time term the move is scored read-only from the
        tallies; with one it is applied, evaluated and undone.  Either
        way the result is the same float, and a target ``obj`` may not
        be mapped to raises what
        :meth:`~repro.core.partition.Partition.assign` raises.
        """
        self.partition.require_assignable(obj, component)
        if self.weights.time and self.time_constraint is not None:
            record = self.apply_move(obj, component)
            value = self.cost()
            self.undo(record)
            return value
        src, sizes = self.inc.preview_sizes(obj, component)
        if src == component:
            return self.cost()
        self.evaluations += 1
        return self._terms(sizes, (obj, src, component))

    # ------------------------------------------------------------------
    # move-generation helpers shared by the algorithms

    def movable_objects(self) -> List[str]:
        """Every behavior and variable, in graph order."""
        return self.slif.bv_names()

    def candidate_components(self, obj: str) -> List[str]:
        """Components ``obj`` may legally move to (excluding its current)."""
        current = self.partition.get_bv_comp(obj)
        if obj in self.slif.behaviors:
            pool = self._behavior_pool
        else:
            pool = self._variable_pool
        return [c for c in pool if c != current]

    def pass_trials(self, start: int = 0) -> int:
        """How many trial moves a pass over ``movable_objects()[start:]``
        scores, in O(1): ``movable_objects()`` lists the behaviors first,
        and each object has one candidate per component of its pool but
        its own."""
        behaviors = len(self.slif.behaviors)
        objects = behaviors + len(self.slif.variables)
        return max(behaviors - start, 0) * (len(self._behavior_pool) - 1) + (
            objects - max(behaviors, start)
        ) * (len(self._variable_pool) - 1)
