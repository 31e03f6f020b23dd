"""Group migration (Kernighan-Lin style) partitioning.

The classic min-cut heuristic generalised to multi-way component
mapping, as used by SpecSyn-family partitioners: within one *pass* every
object moves at most once (objects lock after moving); at each step the
best available move is taken *even if it worsens the cost*, which lets
the algorithm climb out of the local minima that trap pure greedy
descent; at the end of the pass the partition rolls back to the best
prefix of the move sequence.  Passes repeat until one yields no net
improvement.

Moves are named by the compiled graph's node and component indices:
each trial is scored with :meth:`PartitionCost.score_move
<repro.partition.cost.PartitionCost.score_move>` over the node's
:meth:`~repro.partition.cost.PartitionCost.pool`, and the chosen move
and each move of the rollback are made on the same indices by
:meth:`IncrementalEstimator.apply_move
<repro.estimate.incremental.IncrementalEstimator.apply_move>`.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Set, Tuple

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
    budgets: Optional[Mapping[str, Optional[float]]] = None,
    **_ignored,
) -> PartitionResult:
    """Run KL-style passes from ``partition`` (copied, not mutated).

    ``compiled`` and ``budgets`` are as for
    :func:`~repro.partition.greedy.greedy_improve`.
    """
    working = partition.copy(name="group-migration")
    evaluator = PartitionCost(
        slif, working, weights, time_constraint, compiled, budgets
    )
    inc = evaluator.inc
    comp_of, n_nodes = inc.comp_of, inc.cg.n_nodes
    current = evaluator.cost()
    history = [current]
    passes = 0

    while passes < max_passes:
        passes += 1
        if OBS.enabled:
            OBS.inc("partition.group_migration.passes")
        pass_start_cost = current
        locked: Set[int] = set()
        # the sequence of applied moves: (node, from, to, cost after move)
        trail: List[Tuple[int, int, int, float]] = []

        while len(locked) < n_nodes:
            best: Optional[Tuple[float, int, int]] = None
            for node in range(n_nodes):
                if node in locked:
                    continue
                src = comp_of[node]
                for dst in evaluator.pool(node):
                    if dst != src:
                        cost = evaluator.score_move(node, src, dst)
                        if best is None or cost < best[0]:
                            best = (cost, node, dst)
            if best is None:
                break
            cost, node, dst = best
            trail.append((node, inc.apply_move(node, dst), dst, cost))
            locked.add(node)
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
        for node, src, _dst, _cost in reversed(trail[best_idx + 1:]):
            inc.apply_move(node, src)
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
