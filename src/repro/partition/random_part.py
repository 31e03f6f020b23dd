"""Random partitioning: valid random assignments and random restart.

The baseline every real algorithm must beat, and the usual source of
starting points.  Everything is seeded for reproducibility.
"""

from __future__ import annotations

import random
from typing import Mapping, Optional, Sequence

from repro.core.graph import Slif
from repro.core.partition import Partition
from repro.errors import PartitionError, SlifNameError
from repro.estimate.compile import CompiledGraph
from repro.obs import OBS
from repro.partition.cost import CostWeights
from repro.partition.result import PartitionResult


def draw_choices(rng: random.Random, pool: Sequence, count: int) -> list:
    """``[rng.choice(pool) for _ in range(count)]``, draw for draw.

    ``Random.choice`` picks an index by rejection sampling on
    ``getrandbits(len(pool).bit_length())`` (CPython 3.9-3.13); this
    repeats that loop inline, without choice's two Python frames per
    draw, so it returns the same picks and leaves ``rng`` in the same
    state.
    """
    n = len(pool)
    if count > 0 and not n:
        raise IndexError("Cannot choose from an empty sequence")
    k = n.bit_length()
    getrandbits = rng.getrandbits
    picks = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        picks.append(pool[r])
    return picks


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
    picks = draw_choices(rng, processors, len(slif.behaviors))
    picks += draw_choices(rng, processors + memories, len(slif.variables))
    part = Partition(slif, name)
    part._bv_comp = dict(zip(slif.bv_names(), picks))
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
    compiled: Optional[CompiledGraph] = None,
    budgets: Optional[Mapping[str, Optional[float]]] = None,
    **_ignored,
) -> PartitionResult:
    """Best of ``restarts`` random partitions (plus the starting one).

    The starts are candidates of the :mod:`repro.explore` engine,
    evaluated in process at ``jobs=1`` and across worker processes
    otherwise; the result (best partition, cost, improvement history)
    and any error are the same for every ``jobs`` value.  ``compiled``
    and ``budgets`` are as for
    :func:`~repro.partition.greedy.greedy_improve`.
    """
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
        compiled=compiled,
        budgets=budgets,
    )
    result.iterations = restarts
    if OBS.enabled:
        OBS.inc("partition.random.restarts", restarts)
    return result
