"""SpecSyn-style allocation and partitioning over SLIF.

Every algorithm shares the :class:`~repro.partition.cost.PartitionCost`
evaluator (violation-normalized cost via incremental estimation) and
returns a :class:`~repro.partition.result.PartitionResult`.
"""

from typing import Optional

from repro.core.graph import Slif
from repro.core.partition import Partition
from repro.errors import PartitionError
from repro.obs import span
from repro.partition.allocation import (
    AllocationResult,
    BusTemplate,
    ComponentTemplate,
    allocate,
    enumerate_allocations,
    instantiate_allocation,
)
from repro.partition.annealing import simulated_annealing
from repro.partition.clustering import (
    build_clusters,
    closeness_matrix,
    cluster_partition,
)
from repro.partition.cost import CostWeights, PartitionCost
from repro.partition.greedy import greedy_improve, greedy_multistart
from repro.partition.pareto import (
    DesignPoint,
    ParetoFront,
    evaluate_design_point,
    explore_pareto,
)
from repro.partition.group_migration import group_migration
from repro.partition.random_part import random_partition, random_restart
from repro.partition.result import PartitionResult

ALGORITHMS = {
    "greedy": greedy_improve,
    "greedy_multistart": greedy_multistart,
    "group_migration": group_migration,
    "annealing": simulated_annealing,
    "clustering": cluster_partition,
    "random": random_restart,
}

#: the algorithms whose starts run on the exploration engine, the only
#: ones a request's ``jobs``, ``timeout`` and ``retries`` act on
ENGINE_ALGORITHMS = ("random", "greedy_multistart")


def run_algorithm(
    name: str,
    slif: Slif,
    partition: Partition,
    **kwargs,
) -> PartitionResult:
    """Dispatch a partitioning algorithm by name.

    ``kwargs`` pass through to the algorithm (``weights``,
    ``time_constraint``, ``seed``, schedule parameters, ...); unknown
    extras are ignored by each algorithm's ``**_ignored``.
    """
    try:
        algorithm = ALGORITHMS[name]
    except KeyError:
        raise PartitionError(
            f"unknown algorithm {name!r}; available: {sorted(ALGORITHMS)}"
        ) from None
    with span(f"partition.{name}", graph=slif.name) as sp:
        result = algorithm(slif, partition, **kwargs)
        sp.set_attribute("cost", result.cost)
        sp.set_attribute("iterations", result.iterations)
        sp.set_attribute("evaluations", result.evaluations)
    return result


__all__ = [
    "ALGORITHMS",
    "ENGINE_ALGORITHMS",
    "AllocationResult",
    "BusTemplate",
    "ComponentTemplate",
    "CostWeights",
    "DesignPoint",
    "ParetoFront",
    "PartitionCost",
    "PartitionResult",
    "allocate",
    "build_clusters",
    "closeness_matrix",
    "cluster_partition",
    "enumerate_allocations",
    "evaluate_design_point",
    "explore_pareto",
    "greedy_improve",
    "greedy_multistart",
    "group_migration",
    "instantiate_allocation",
    "random_partition",
    "random_restart",
    "run_algorithm",
    "simulated_annealing",
]
