"""Hierarchical-clustering constructive partitioning.

A constructive (rather than iterative-improvement) algorithm in the
SpecSyn style: objects that communicate heavily belong together, so we

1. score every object pair's *closeness* as the total communication
   weight (access frequency x bits, both directions) between them;
2. greedily merge the closest clusters until as many clusters remain as
   there are components (never merging two behavior-bearing clusters
   past the processor count, and keeping variable-only clusters
   eligible for memories);
3. assign behavior-bearing clusters to processors and remaining
   clusters to memories first, largest-communication clusters first;
4. hand the result to greedy improvement for cleanup.

Good starting points matter: on communication-dominated designs this
reaches better minima than random starts for the same evaluation
budget.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.core.graph import Slif
from repro.core.partition import Partition
from repro.errors import PartitionError
from repro.estimate.compile import CompiledGraph
from repro.obs import OBS
from repro.partition.cost import CostWeights, PartitionCost
from repro.partition.greedy import greedy_improve
from repro.partition.result import PartitionResult


def closeness_matrix(slif: Slif) -> Dict[Tuple[str, str], float]:
    """Pairwise communication weight between functional objects.

    Keyed by sorted name pair; ports are external and excluded.
    """
    scores: Dict[Tuple[str, str], float] = {}
    for ch in slif.channels.values():
        if ch.dst in slif.ports:
            continue
        key = tuple(sorted((ch.src, ch.dst)))
        weight = ch.accfreq * max(ch.bits, 1)
        scores[key] = scores.get(key, 0.0) + weight
    return scores


def _cluster_closeness(
    a: Set[str], b: Set[str], scores: Dict[Tuple[str, str], float]
) -> float:
    total = 0.0
    for x in a:
        for y in b:
            key = tuple(sorted((x, y)))
            total += scores.get(key, 0.0)
    return total


def build_clusters(slif: Slif, target_count: int) -> List[Set[str]]:
    """Agglomerate functional objects into ``target_count`` clusters."""
    if target_count < 1:
        raise PartitionError("target cluster count must be >= 1")
    scores = closeness_matrix(slif)
    clusters: List[Set[str]] = [{name} for name in slif.bv_names()]
    while len(clusters) > target_count:
        best: Optional[Tuple[float, int, int]] = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                closeness = _cluster_closeness(clusters[i], clusters[j], scores)
                if best is None or closeness > best[0]:
                    best = (closeness, i, j)
        if best is None:
            break
        _, i, j = best
        clusters[i] = clusters[i] | clusters[j]
        del clusters[j]
        if OBS.enabled:
            OBS.inc("partition.clustering.merges")
    return clusters


def _assign_clusters(
    slif: Slif, clusters: List[Set[str]], partition: Partition
) -> None:
    """Map clusters onto components, behaviors-first."""
    processors = list(slif.processors)
    memories = list(slif.memories)
    has_behavior = [
        any(obj in slif.behaviors for obj in cluster) for cluster in clusters
    ]
    # biggest clusters first so they get first pick of components
    order = sorted(
        range(len(clusters)), key=lambda i: -sum(1 for _ in clusters[i])
    )
    proc_cursor = 0
    mem_cursor = 0
    for idx in order:
        cluster = clusters[idx]
        if has_behavior[idx] or not memories:
            comp = processors[proc_cursor % len(processors)]
            proc_cursor += 1
        else:
            comp = memories[mem_cursor % len(memories)]
            mem_cursor += 1
        for obj in cluster:
            partition.assign(obj, comp)


def cluster_partition(
    slif: Slif,
    partition: Partition,
    weights: Optional[CostWeights] = None,
    time_constraint: Optional[float] = None,
    refine: bool = True,
    compiled: Optional[CompiledGraph] = None,
    budgets: Optional[Mapping[str, Optional[float]]] = None,
    **_ignored,
) -> PartitionResult:
    """Constructive clustering followed by optional greedy refinement.

    ``partition`` supplies the channel-to-bus mapping (and the result's
    shape); its object mapping is replaced wholesale.  ``compiled`` and
    ``budgets`` are as for :func:`~repro.partition.greedy.greedy_improve`.
    """
    component_count = len(slif.processors) + len(slif.memories)
    if component_count < 1:
        raise PartitionError("cannot cluster: no components allocated")
    clusters = build_clusters(slif, component_count)
    working = partition.copy(name="clustering")
    _assign_clusters(slif, clusters, working)

    if refine:
        result = greedy_improve(
            slif, working, weights=weights, time_constraint=time_constraint,
            compiled=compiled, budgets=budgets,
        )
        result.algorithm = "clustering"
        return result

    evaluator = PartitionCost(
        slif, working, weights, time_constraint, compiled, budgets
    )
    cost = evaluator.cost()
    evaluator.publish()
    return PartitionResult(
        partition=working,
        cost=cost,
        algorithm="clustering",
        iterations=1,
        evaluations=1,
        history=[cost],
    )
