"""Group migration (Kernighan-Lin style) partitioning.

The classic min-cut heuristic generalised to multi-way component
mapping, as used by SpecSyn-family partitioners: within one *pass* every
object moves at most once (objects lock after moving); at each step the
best available move is taken *even if it worsens the cost*, which lets
the algorithm climb out of the local minima that trap pure greedy
descent; at the end of the pass the partition rolls back to the best
prefix of the move sequence.  Passes repeat until one yields no net
improvement.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.graph import Slif
from repro.core.partition import Partition
from repro.estimate.compile import CompiledGraph
from repro.obs import OBS
from repro.partition.cost import CostWeights, PartitionCost
from repro.partition.result import PartitionResult


def group_migration(
    slif: Slif,
    partition: Partition,
    weights: Optional[CostWeights] = None,
    time_constraint: Optional[float] = None,
    max_passes: int = 10,
    compiled: Optional[CompiledGraph] = None,
    **_ignored,
) -> PartitionResult:
    """Run KL-style passes from ``partition`` (copied, not mutated).

    ``compiled`` is the graph's compiled form, when the caller holds one.
    """
    working = partition.copy(name="group-migration")
    evaluator = PartitionCost(slif, working, weights, time_constraint, compiled)
    current = evaluator.cost()
    history = [current]
    passes = 0

    while passes < max_passes:
        passes += 1
        if OBS.enabled:
            OBS.inc("partition.group_migration.passes")
        pass_start_cost = current
        locked: set = set()
        # the sequence of applied moves: (obj, from, to, cost after move)
        trail: List[Tuple[str, str, str, float]] = []

        objects = evaluator.movable_objects()
        while len(locked) < len(objects):
            best: Optional[Tuple[float, str, str]] = None
            for obj in objects:
                if obj in locked:
                    continue
                for comp in evaluator.candidate_components(obj):
                    cost = evaluator.try_move(obj, comp)
                    if best is None or cost < best[0]:
                        best = (cost, obj, comp)
            if best is None:
                break
            cost, obj, comp = best
            src = working.get_bv_comp(obj)
            evaluator.apply_move(obj, comp)
            locked.add(obj)
            trail.append((obj, src, comp, cost))
            current = cost
            if OBS.enabled:
                OBS.inc("partition.group_migration.moves")

        # roll back to the best prefix of the pass
        best_idx = -1
        best_cost = pass_start_cost
        for idx, (_, _, _, cost) in enumerate(trail):
            if cost < best_cost - 1e-12:
                best_cost = cost
                best_idx = idx
        for obj, src, _comp, _cost in reversed(trail[best_idx + 1:]):
            evaluator.apply_move(obj, src)
            if OBS.enabled:
                OBS.inc("partition.group_migration.rollback_moves")
        current = best_cost
        history.append(current)

        if best_idx == -1:
            break  # the pass found nothing better than its start

    evaluator.publish()
    return PartitionResult(
        partition=working,
        cost=current,
        algorithm="group_migration",
        iterations=passes,
        evaluations=evaluator.evaluations,
        history=history,
    )
