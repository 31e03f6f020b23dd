"""Simulated-annealing partitioning.

The stochastic global search SpecSyn-era tools reached for when greedy
and group migration stalled: random single-object moves accepted by the
Metropolis criterion under a geometrically cooling temperature.  Fully
seeded; the default schedule is sized so a run costs a few thousand
cost evaluations — the workload the paper's estimation speed argument
is about.
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
    through ``seed + restarts - 1``) and keeps the best; with
    ``jobs > 1`` the chains run across worker processes via the
    :mod:`repro.explore` engine.  The winning chain is the same for any
    ``jobs`` value (ties break toward the lower seed); the returned
    ``history`` is the winning chain's own improvement trace and
    ``iterations``/``evaluations`` sum over all chains.  ``compiled``
    and ``budgets`` are as for :func:`~repro.partition.greedy.greedy_improve`.
    """
    if restarts > 1 or jobs != 1 or checkpoint or resume:
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
            for i in range(max(1, restarts))
        ]
        if OBS.enabled:
            OBS.inc("partition.annealing.chains", len(specs))
        result = run_multistart(
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
        )
        return result

    rng = random.Random(seed)
    working = partition.copy(name="annealing")
    evaluator = PartitionCost(
        slif, working, weights, time_constraint, compiled, budgets
    )
    current = evaluator.cost()
    best_snapshot = working.copy(name="annealing-best")
    best_cost = current
    history = [current]

    objects = evaluator.movable_objects()
    temperature = initial_temperature
    iterations = accepted = rejected = improvements = 0

    while temperature > min_temperature:
        for _ in range(moves_per_temperature):
            iterations += 1
            obj = rng.choice(objects)
            candidates = evaluator.candidate_components(obj)
            if not candidates:
                continue
            comp = rng.choice(candidates)
            record = evaluator.apply_move(obj, comp)
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
                evaluator.undo(record)
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
