"""Random partitioning: valid random assignments and random restart.

The baseline every real algorithm must beat, and the usual source of
starting points.  Everything is seeded for reproducibility.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.graph import Slif
from repro.core.partition import Partition
from repro.errors import PartitionError, SlifNameError
from repro.estimate.compile import compile_graph
from repro.obs import OBS
from repro.partition.cost import CostWeights, PartitionCost
from repro.partition.result import PartitionResult


def random_partition(
    slif: Slif,
    seed: int = 0,
    bus: Optional[str] = None,
    name: str = "random",
) -> Partition:
    """A uniformly random *proper* partition.

    Behaviors land on random processors, variables on random processors
    or memories, and all channels on the single bus (or ``bus``).
    """
    rng = random.Random(seed)
    processors = list(slif.processors)
    memories = list(slif.memories)
    if not processors:
        raise PartitionError("cannot partition: no processors allocated")
    if bus is None:
        if len(slif.buses) != 1:
            raise PartitionError(
                f"graph has {len(slif.buses)} buses; specify which to use"
            )
        bus = next(iter(slif.buses))
    # names taken from the graph need none of assign()'s checks.  Seeded
    # starts depend on the draw order: behaviors, then variables
    choice = rng.choice
    var_pool = processors + memories
    part = Partition(slif, name)
    part._bv_comp = {b: choice(processors) for b in slif.behaviors}
    part._bv_comp.update((v, choice(var_pool)) for v in slif.variables)
    if slif.channels and bus not in slif.buses:
        raise SlifNameError(f"no bus named {bus!r}")
    part._chan_bus = dict.fromkeys(slif.channels, bus)
    return part


def random_restart(
    slif: Slif,
    partition: Partition,
    restarts: int = 20,
    seed: int = 0,
    weights: Optional[CostWeights] = None,
    time_constraint: Optional[float] = None,
    jobs: int = 1,
    policy=None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    **_ignored,
) -> PartitionResult:
    """Best of ``restarts`` random partitions (plus the starting one).

    ``jobs > 1`` evaluates the restarts across worker processes through
    the :mod:`repro.explore` engine; the result (best partition, cost,
    improvement history) is identical to the sequential sweep for any
    ``jobs`` value.
    """
    if jobs != 1 or checkpoint or resume:
        from repro.explore.engine import run_multistart
        from repro.explore.plan import CandidateSpec

        specs = [
            CandidateSpec(index=0, kind="start", label="start", algorithm="none")
        ] + [
            CandidateSpec(
                index=i + 1,
                kind="random",
                label=f"restart.{i}",
                algorithm="none",
                seed=seed + i,
            )
            for i in range(restarts)
        ]
        result = run_multistart(
            slif,
            partition,
            specs,
            algorithm="random",
            result_name="random-best",
            weights=weights,
            time_constraint=time_constraint,
            jobs=jobs,
            policy=policy,
            checkpoint=checkpoint,
            resume=resume,
        )
        result.iterations = restarts
        if OBS.enabled:
            OBS.inc("partition.random.restarts", restarts)
        return result

    compiled = compile_graph(slif)

    def score(candidate: Partition) -> float:
        evaluator = PartitionCost(slif, candidate, weights, time_constraint, compiled)
        value = evaluator.cost()
        evaluator.publish()
        return value

    best = partition.copy(name="random-best")
    best_cost = score(best)
    evaluations = 1
    history = [best_cost]
    for i in range(restarts):
        if OBS.enabled:
            OBS.inc("partition.random.restarts")
        candidate = random_partition(slif, seed=seed + i, name=f"random-{i}")
        cost = score(candidate)
        evaluations += 1
        if cost < best_cost:
            best, best_cost = candidate, cost
            history.append(best_cost)
    best.name = "random-best"
    return PartitionResult(
        partition=best,
        cost=best_cost,
        algorithm="random",
        iterations=restarts,
        evaluations=evaluations,
        history=history,
    )
