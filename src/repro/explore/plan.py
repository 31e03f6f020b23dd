"""Deterministic work plans for design-space exploration.

The unit of exploration is a :class:`CandidateSpec` — a self-contained
recipe for producing and evaluating one candidate partition (start from
the current mapping or a seeded random one, optionally run a descent
under synthetic constraints, then measure the design point).  A
:class:`WorkPlan` is an ordered list of candidate specs sliced into
:class:`Chunk`\\ s.

Two properties make ``--jobs N`` output byte-identical to ``--jobs 1``:

1. every candidate is a *pure function* of ``(graph, spec)`` — no state
   leaks between candidates, so where a candidate runs cannot change
   what it produces;
2. chunk boundaries are fixed by the plan (``chunk_size`` is chosen when
   the plan is built), **never** by the worker count — ``--jobs`` only
   decides how many chunks are in flight at once.

Merging happens in ascending candidate ``index`` order, which replays
the exact insertion order a single sequential sweep would have used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Candidates per chunk for cheap evaluations (one cost call each).
CHEAP_CHUNK = 8
#: Candidates per chunk for full search chains (annealing restarts).
HEAVY_CHUNK = 1


@dataclass(frozen=True)
class CandidateSpec:
    """One candidate evaluation, fully described and picklable.

    ``kind`` selects how the starting partition is produced:

    - ``"start"`` — evaluate the plan's base partition as-is;
    - ``"descent"`` — run ``algorithm`` from the base partition;
    - ``"random"`` — run ``algorithm`` from a seeded random partition.

    ``constraints`` are synthetic component size constraints installed
    for the duration of this candidate only (the Pareto sweep uses them
    to force progressively more offload).  ``params`` are extra keyword
    arguments for the algorithm (annealing schedule, cost weights, ...).
    """

    index: int
    kind: str
    label: str
    algorithm: str = "greedy"
    seed: Optional[int] = None
    constraints: Tuple[Tuple[str, Optional[float]], ...] = ()
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Chunk:
    """A contiguous slice of the plan, dispatched to one worker at a time."""

    index: int
    candidates: Tuple[CandidateSpec, ...]

    def __len__(self) -> int:
        return len(self.candidates)


@dataclass
class WorkPlan:
    """An ordered candidate list plus its fixed chunking.

    ``chunk_size`` is part of the plan, not of the execution: sharding
    the same plan for 1 or 16 workers yields the same chunks, which is
    what keeps exploration results independent of ``--jobs``.
    """

    candidates: List[CandidateSpec]
    chunk_size: int = CHEAP_CHUNK

    def __len__(self) -> int:
        return len(self.candidates)

    def chunks(self) -> List[Chunk]:
        """Slice the candidate list into deterministic contiguous chunks."""
        size = max(1, self.chunk_size)
        return [
            Chunk(i // size, tuple(self.candidates[i : i + size]))
            for i in range(0, len(self.candidates), size)
        ]

    def num_chunks(self) -> int:
        return math.ceil(len(self.candidates) / max(1, self.chunk_size))


# ----------------------------------------------------------------------
# plan builders


def pareto_plan(
    software_sizes: Dict[str, float],
    constraint_steps: int = 8,
    random_starts: int = 5,
    seed: int = 0,
) -> WorkPlan:
    """The classic time/area sweep as a work plan.

    Mirrors the sequential sweep exactly: the unconstrained start point,
    then for each constraint step one greedy descent from the start plus
    ``random_starts`` refined random partitions, all under synthetic CPU
    size constraints shrinking toward zero.  ``software_sizes`` maps each
    software component to its baseline (all-software) size.
    """
    candidates: List[CandidateSpec] = [
        CandidateSpec(index=0, kind="start", label="start", algorithm="none")
    ]
    index = 1
    for step in range(constraint_steps):
        fraction = 1.0 - step / constraint_steps
        constraints = tuple(
            (name, max(size * fraction, 1.0))
            for name, size in sorted(software_sizes.items())
        )
        candidates.append(
            CandidateSpec(
                index=index,
                kind="descent",
                label=f"greedy@{fraction:.2f}",
                algorithm="greedy",
                constraints=constraints,
            )
        )
        index += 1
        for idx in range(random_starts):
            candidates.append(
                CandidateSpec(
                    index=index,
                    kind="random",
                    label=f"random@{fraction:.2f}.{idx}",
                    algorithm="greedy",
                    seed=seed + step * random_starts + idx,
                    constraints=constraints,
                )
            )
            index += 1
    # one chunk per sweep step keeps chunk wall-times even without ever
    # depending on the worker count
    return WorkPlan(candidates, chunk_size=1 + random_starts)


def restart_plan(
    specs: List[CandidateSpec], chunk_size: int = CHEAP_CHUNK
) -> WorkPlan:
    """Wrap an explicit candidate list built by a multi-start partitioner.

    The restart-based partitioners (``random_restart``,
    ``greedy_multistart``, multi-chain annealing) enumerate their own
    candidate lists — this helper only pins the chunking so it stays a
    property of the plan, not of the worker count.
    """
    return WorkPlan(list(specs), chunk_size=chunk_size)
