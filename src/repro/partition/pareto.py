"""Pareto-front exploration of the hardware/software trade-off.

SpecSyn's reason for existing (Section 6) is letting a designer
"rapidly explore partitions of functionality among processors, ASICs,
memories and bus components".  The exploration designers actually want
is multi-objective: how much performance does each additional gate of
hardware buy?  This module sweeps that trade-off:

1. sample many candidate partitions — the all-software point, greedy
   descents under a range of synthetic CPU-size constraints (which
   force progressively more offload), and seeded random starts;
2. evaluate each candidate's (system execution time, custom-hardware
   size) with the standard estimators;
3. keep the non-dominated set.

The result is the classic time/area Pareto front, computed from
nothing but SLIF annotations — a few thousand estimate calls, which is
exactly the workload the paper's preprocessing makes cheap.

The sweep itself runs on the :mod:`repro.explore` engine: candidates
are sharded into deterministic chunks and fanned across worker
processes (``jobs > 1``) or batched through one in-process runner
(``jobs=1``), all reading the caller's graph; chunk-local fronts are
merged in candidate order, so the front is byte-identical for any
``jobs`` value given the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.annotations import left_sum
from repro.core.graph import Slif
from repro.core.partition import Partition
from repro.errors import PartitionError
from repro.obs import add_event, span


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated partition on the time/area plane."""

    system_time: float
    hardware_size: float
    mapping: Tuple[Tuple[str, str], ...]   # frozen object->component map
    label: str = ""

    def dominates(self, other: "DesignPoint") -> bool:
        """True when at least as good on both axes and better on one."""
        if self.system_time > other.system_time:
            return False
        if self.hardware_size > other.hardware_size:
            return False
        return (
            self.system_time < other.system_time
            or self.hardware_size < other.hardware_size
        )


@dataclass
class ParetoFront:
    """The non-dominated designs, sorted by ascending hardware size."""

    points: List[DesignPoint] = field(default_factory=list)
    evaluated: int = 0

    def add(self, candidate: DesignPoint) -> bool:
        """Insert ``candidate`` unless dominated; prune what it dominates.

        Returns True when the candidate joined the front.
        """
        self.evaluated += 1
        for existing in self.points:
            if existing.dominates(candidate) or (
                existing.system_time == candidate.system_time
                and existing.hardware_size == candidate.hardware_size
            ):
                return False
        self.points = [p for p in self.points if not candidate.dominates(p)]
        self.points.append(candidate)
        self.points.sort(key=lambda p: (p.hardware_size, p.system_time))
        return True

    def render(self) -> str:
        lines = [
            f"Pareto front ({len(self.points)} points from "
            f"{self.evaluated} evaluated designs):",
            f"  {'hw size':>12} {'system time':>12}  label",
        ]
        for p in self.points:
            lines.append(
                f"  {p.hardware_size:>12g} {p.system_time:>12g}  {p.label}"
            )
        return "\n".join(lines)


def evaluate_design_point(
    slif: Slif,
    partition: Partition,
    hardware: List[str],
    label: str = "",
) -> DesignPoint:
    """Measure one candidate partition on the time/area plane.

    The lean inner-loop evaluation of the exploration engine: component
    sizes (Eqs. 4–5) plus the memoized execution-time pass (Eq. 1) —
    exactly the two metrics a :class:`DesignPoint` carries, skipping the
    I/O and bitrate work a full :meth:`Estimator.report` would also do.
    :meth:`~repro.estimate.kernel.BatchKernel.evaluate` scores a batch
    of candidates to the same points; this is the reference it falls
    back to, which raises the precise error if there is one.
    """
    from repro.estimate.exectime import ExecTimeEstimator
    from repro.estimate.size import all_component_sizes

    sizes = all_component_sizes(slif, partition)
    times = ExecTimeEstimator(slif, partition).process_times()
    return DesignPoint(
        system_time=max(times.values()) if times else 0.0,
        hardware_size=left_sum(sizes.get(name, 0.0) for name in hardware),
        mapping=tuple(sorted(partition.object_mapping().items())),
        label=label,
    )


def explore_pareto(
    slif: Slif,
    start: Partition,
    hardware_components: Optional[List[str]] = None,
    constraint_steps: int = 8,
    random_starts: int = 5,
    seed: int = 0,
    jobs: int = 1,
    policy=None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    fleet=None,
    on_result=None,
    kernel=None,
) -> ParetoFront:
    """Sweep the time/area trade-off and return the Pareto front.

    ``hardware_components`` names the custom processors whose summed
    size is the area axis; by default every custom processor counts.
    The sweep gives its descents synthetic CPU size budgets to force
    different offload levels; the caller's graph and partition are
    only read, never mutated.  ``kernel`` is the graph's
    :class:`~repro.estimate.kernel.BatchKernel`, when the caller holds
    one; otherwise the sweep builds it once, in this process, when it
    first needs it.  Its compiled graph also scores every descent's
    moves.

    ``jobs`` controls parallelism: 1 evaluates the whole plan through
    one in-process runner, N > 1 fans chunks across N worker processes,
    0 uses every core.  The front is byte-identical for any ``jobs``
    value given the same ``seed`` — including when the fault-tolerant
    dispatch loop had to retry, respawn or degrade along the way.
    ``policy`` (a :class:`~repro.explore.engine.RetryPolicy`) tunes the
    per-chunk timeout and retry budget; ``checkpoint`` journals
    completed chunks to a JSONL file and ``resume`` replays such a
    journal so only missing chunks are re-evaluated.  ``fleet`` (a
    :class:`~repro.fleet.protocol.FleetSpec`) routes the chunks to a
    coordinator/worker fleet instead of local processes — same front,
    same bytes.

    Example (5 candidates: the start point plus two constraint steps of
    one greedy descent and one refined random start each):

    >>> from repro.api import build_system
    >>> system = build_system("fuzzy")
    >>> front = explore_pareto(system.slif, system.partition,
    ...                        constraint_steps=2, random_starts=1, seed=0)
    >>> front.evaluated
    5
    >>> len(front.points) >= 2   # at least all-software and some offload
    True
    >>> all(not a.dominates(b)   # fronts are mutually non-dominated
    ...     for a in front.points for b in front.points if a is not b)
    True
    """
    from repro.estimate.size import all_component_sizes
    from repro.explore.engine import merge_fronts, run_plan
    from repro.explore.plan import pareto_plan
    from repro.explore.worker import PlanPayload

    if hardware_components is None:
        hardware_components = [
            name for name, proc in slif.processors.items() if proc.is_custom
        ]
    if not hardware_components:
        raise PartitionError("no custom processors to trade hardware against")
    software = [
        name
        for name, proc in slif.processors.items()
        if name not in hardware_components
    ]
    if not software:
        raise PartitionError("no software processor to trade against")

    with span("partition.explore", graph=slif.name, jobs=jobs) as sp:
        baseline_sizes = all_component_sizes(slif, start)
        plan = pareto_plan(
            {name: baseline_sizes[name] for name in software},
            constraint_steps=constraint_steps,
            random_starts=random_starts,
            seed=seed,
        )
        payload = PlanPayload(
            task="pareto",
            hardware=tuple(hardware_components),
            slif=slif,
            partition=start,
            kernel=kernel,
        )
        results = run_plan(
            payload,
            plan,
            jobs=jobs,
            policy=policy,
            checkpoint=checkpoint,
            resume=resume,
            fleet=fleet,
            on_result=on_result,
        )
        front = merge_fronts(results, evaluated=len(plan))
        add_event(
            "explore.merge",
            front_size=len(front.points),
            evaluated=front.evaluated,
            chunks=len(results),
        )
        sp.set_attribute("points", len(front.points))
        sp.set_attribute("evaluated", front.evaluated)
    return front
