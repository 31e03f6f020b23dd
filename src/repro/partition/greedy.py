"""Greedy improvement partitioning (steepest-descent moves).

Repeated passes over every functional object; each object is offered
every legal alternative component and takes the best strictly-improving
move.  Terminates when a full pass improves nothing — a local minimum
under the single-move neighbourhood — or after ``max_passes`` passes.

Once the cost reaches :meth:`PartitionCost.floor`, no trial move can
improve it, so the descent ends there: the trials left in the pass and
the confirming pass that the full loop would still make are added to
``evaluations`` and ``iterations`` without being scored, and the answer
and every counter stay what running them would give.

Simple, fast, and the workhorse inner refinement of the other
algorithms; also the algorithm whose inner loop the incremental
estimator was built for.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.graph import Slif
from repro.core.partition import Partition
from repro.estimate.compile import CompiledGraph
from repro.obs import OBS
from repro.partition.cost import CostWeights, PartitionCost
from repro.partition.result import PartitionResult


def greedy_improve(
    slif: Slif,
    partition: Partition,
    weights: Optional[CostWeights] = None,
    time_constraint: Optional[float] = None,
    max_passes: int = 50,
    compiled: Optional[CompiledGraph] = None,
    budgets: Optional[Mapping[str, Optional[float]]] = None,
    **_ignored,
) -> PartitionResult:
    """Hill-climb from ``partition`` (which is copied, not mutated).

    ``compiled`` is the graph's compiled form, when the caller shares
    one across descents; ``budgets`` overrides component size budgets
    (see :class:`~repro.partition.cost.PartitionCost`).
    """
    working = partition.copy(name="greedy")
    evaluator = PartitionCost(
        slif, working, weights, time_constraint, compiled, budgets
    )
    current = evaluator.cost()
    history = [current]
    floor = evaluator.floor()
    passes = 0

    improved = True
    while improved and passes < max_passes:
        improved = False
        passes += 1
        if OBS.enabled:
            OBS.inc("partition.greedy.passes")
        if current == floor:
            # the confirming pass: no trial can score below the floor
            evaluator.evaluations += evaluator.pass_trials()
            break
        for position, obj in enumerate(evaluator.movable_objects()):
            best_cost = current
            best_comp = None
            for comp in evaluator.candidate_components(obj):
                cost = evaluator.try_move(obj, comp)
                if cost < best_cost - 1e-12:
                    best_cost = cost
                    best_comp = comp
            if best_comp is not None:
                evaluator.apply_move(obj, best_comp)
                current = best_cost
                history.append(current)
                improved = True
                if current == floor:
                    # nor can any trial left in this pass
                    evaluator.evaluations += evaluator.pass_trials(position + 1)
                    break

    if OBS.enabled and len(history) > 1:
        OBS.inc("partition.greedy.improving_moves", len(history) - 1)
    evaluator.publish()
    return PartitionResult(
        partition=working,
        cost=current,
        algorithm="greedy",
        iterations=passes,
        evaluations=evaluator.evaluations,
        history=history,
    )


def greedy_multistart(
    slif: Slif,
    partition: Partition,
    starts: int = 8,
    seed: int = 0,
    weights: Optional[CostWeights] = None,
    time_constraint: Optional[float] = None,
    jobs: int = 1,
    max_passes: int = 50,
    policy=None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    **_ignored,
) -> PartitionResult:
    """Best of ``starts + 1`` greedy descents: the given partition plus
    seeded random starts.

    Greedy is fast but stops at the first local minimum; restarting it
    from many random partitions recovers much of annealing's quality at
    a fraction of the cost, and the descents are embarrassingly parallel
    — ``jobs > 1`` fans them across worker processes via the
    :mod:`repro.explore` engine.  The result is identical for any
    ``jobs`` value: ties between equal-cost descents break toward the
    earlier start.

    ``iterations``/``evaluations`` sum over every descent; ``history``
    is the best-so-far cost over starts in order.
    """
    from repro.explore.engine import run_multistart
    from repro.explore.plan import CandidateSpec

    params = {"max_passes": max_passes}
    specs = [
        CandidateSpec(
            index=0,
            kind="start",
            label="start",
            algorithm="greedy",
            params=dict(params),
        )
    ] + [
        CandidateSpec(
            index=i + 1,
            kind="random",
            label=f"start.{i}",
            algorithm="greedy",
            seed=seed + i,
            params=dict(params),
        )
        for i in range(starts)
    ]
    if OBS.enabled:
        OBS.inc("partition.greedy.starts", starts + 1)
    return run_multistart(
        slif,
        partition,
        specs,
        algorithm="greedy_multistart",
        result_name="greedy-multistart-best",
        weights=weights,
        time_constraint=time_constraint,
        jobs=jobs,
        policy=policy,
        checkpoint=checkpoint,
        resume=resume,
    )
