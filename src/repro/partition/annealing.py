"""Simulated-annealing partitioning.

The stochastic global search SpecSyn-era tools reached for when greedy
and group migration stalled: random single-object moves accepted by the
Metropolis criterion under a geometrically cooling temperature.  Fully
seeded; the default schedule is sized so a run costs a few thousand
cost evaluations — the workload the paper's estimation speed argument
is about.

A move is drawn on the compiled graph's indices: a node, in graph
order, then one of the other components of its
:meth:`~repro.partition.cost.PartitionCost.pool`, in pool order.  A
trial applies the move with :meth:`IncrementalEstimator.apply_move
<repro.estimate.incremental.IncrementalEstimator.apply_move>`,
evaluates it and, on rejection, moves the node back with ``undo``, so
an accepted move keeps the applied tallies: a preview followed by a
commit does not always leave the same floats.
"""

from __future__ import annotations

import math
import random
from typing import Mapping, Optional

from repro.core.graph import Slif
from repro.core.partition import Partition
from repro.estimate.compile import CompiledGraph
from repro.obs import OBS, add_event
from repro.partition.cost import CostWeights, PartitionCost
from repro.partition.result import PartitionResult


def simulated_annealing(
    slif: Slif,
    partition: Partition,
    weights: Optional[CostWeights] = None,
    time_constraint: Optional[float] = None,
    seed: int = 0,
    initial_temperature: float = 1.0,
    cooling: float = 0.95,
    moves_per_temperature: int = 60,
    min_temperature: float = 1e-3,
    restarts: int = 1,
    jobs: int = 1,
    policy=None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    compiled: Optional[CompiledGraph] = None,
    budgets: Optional[Mapping[str, Optional[float]]] = None,
    **_ignored,
) -> PartitionResult:
    """Anneal from ``partition`` (copied, not mutated).

    ``restarts > 1`` runs that many independent chains (seeds ``seed``
    through ``seed + restarts - 1``) as candidates of the
    :mod:`repro.explore` engine, which ``jobs``, ``policy``,
    ``checkpoint`` and ``resume`` configure, and keeps the best.  The
    winning chain is the same for any ``jobs`` value (ties break toward
    the lower seed); the returned ``history`` is the winning chain's
    own improvement trace and ``iterations``/``evaluations`` sum over
    all chains.  One chain is one candidate, which neither a pool nor
    a journal can split, so it runs here at any ``jobs``.  ``compiled``
    and ``budgets`` are as for :func:`~repro.partition.greedy.greedy_improve`
    and apply to every chain.
    """
    if restarts > 1:
        from repro.explore.engine import run_multistart
        from repro.explore.plan import HEAVY_CHUNK, CandidateSpec

        params = {
            "initial_temperature": initial_temperature,
            "cooling": cooling,
            "moves_per_temperature": moves_per_temperature,
            "min_temperature": min_temperature,
        }
        specs = [
            CandidateSpec(
                index=i,
                kind="start",
                label=f"chain.{i}",
                algorithm="annealing",
                seed=seed + i,
                params=dict(params),
            )
            for i in range(restarts)
        ]
        if OBS.enabled:
            OBS.inc("partition.annealing.chains", len(specs))
        return run_multistart(
            slif,
            partition,
            specs,
            algorithm="annealing",
            result_name="annealing-best",
            weights=weights,
            time_constraint=time_constraint,
            jobs=jobs,
            chunk_size=HEAVY_CHUNK,
            history_mode="best_chain",
            policy=policy,
            checkpoint=checkpoint,
            resume=resume,
            compiled=compiled,
            budgets=budgets,
        )

    rng = random.Random(seed)
    working = partition.copy(name="annealing")
    evaluator = PartitionCost(
        slif, working, weights, time_constraint, compiled, budgets
    )
    current = evaluator.cost()
    best_snapshot = working.copy(name="annealing-best")
    best_cost = current
    history = [current]

    inc = evaluator.inc
    comp_of, pools = inc.comp_of, inc.cg.pools
    nodes = range(len(pools))
    temperature = initial_temperature
    iterations = accepted = rejected = improvements = 0

    while temperature > min_temperature:
        for _ in range(moves_per_temperature):
            iterations += 1
            node = rng.choice(nodes)
            candidates = [c for c in pools[node] if c != comp_of[node]]
            if not candidates:
                continue
            src = inc.apply_move(node, rng.choice(candidates))
            cost = evaluator.cost()
            delta = cost - current
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                current = cost
                accepted += 1
                if current < best_cost - 1e-12:
                    best_cost = current
                    best_snapshot = working.copy(name="annealing-best")
                    history.append(best_cost)
                    improvements += 1
            else:
                inc.undo(node, src)
                rejected += 1
        if OBS.enabled:
            # temperature + best-cost trajectory, one event per cooling step
            OBS.set_gauge("partition.annealing.temperature", temperature)
            OBS.set_gauge("partition.annealing.best_cost", best_cost)
            add_event(
                "annealing.cool",
                temperature=temperature,
                current_cost=current,
                best_cost=best_cost,
            )
        temperature *= cooling

    evaluator.publish()
    if OBS.enabled:
        for name, count in (
            ("iterations", iterations),
            ("accepted", accepted),
            ("rejected", rejected),
            ("improvements", improvements),
        ):
            if count:
                OBS.inc(f"partition.annealing.{name}", count)
    return PartitionResult(
        partition=best_snapshot,
        cost=best_cost,
        algorithm="annealing",
        iterations=iterations,
        evaluations=evaluator.evaluations,
        history=history,
    )
