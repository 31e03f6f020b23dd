"""Golden answers of the search algorithms and the explore sweep.

The optimisations of the partitioning inner loop must not move a single
answer: costs, iteration and evaluation counts, improvement histories,
mappings and Pareto fronts all stay byte-identical.  This module
computes those answers on the four bundled specs and two generated
ones; ``tests/partition/test_golden_answers.py`` compares them with the
checked-in ``tests/golden/search_answers.json``.

The ``partition_timed`` section pins searches under a time constraint
of half the start's system time, where every trial move also pays an
Eq. 1 recompute; ``partition_timed_slow`` holds the slower ones, which
``benchmarks/bench_time_equivalence.py`` checks.

Regenerate the file only for a change that is meant to alter answers::

    PYTHONPATH=src python tests/_golden.py > tests/golden/search_answers.json
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from typing import Any, Dict

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "search_answers.json")

BUNDLED = ("ans", "ether", "fuzzy", "vol")
#: name -> GenConfig keyword arguments of the generated specs
GENERATED = {
    "gen300": {"behaviors": 300, "seed": 3},
    "gen300-deep": {"behaviors": 300, "seed": 4, "depth": 5, "concurrency": 0.5},
}
ALGORITHMS = ("greedy", "group_migration", "annealing", "greedy_multistart", "random")
#: spec -> the algorithms searched under a time constraint and binding
#: size and pin budgets (see :func:`constrained`), with :data:`FAST`
TIMED = {
    "ans": ALGORITHMS,
    "ether": ("greedy", "annealing", "random"),
    "fuzzy": ALGORITHMS,
    "vol": ALGORITHMS,
}
#: algorithm -> settings that keep the :data:`TIMED` searches short
FAST = {
    "annealing": {"moves_per_temperature": 10, "cooling": 0.8},
    "greedy_multistart": {"starts": 3},
}
#: spec -> (algorithms, whether under :func:`constrained`) of the slow
#: time-constrained searches, at default settings
TIMED_SLOW = {
    "ether": (("group_migration", "greedy_multistart"), True),
    "gen300": (("greedy",), False),
}


def digest(value: Any) -> str:
    """Short stable digest of a JSON-able value (mappings are large)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def spec_text(name: str) -> str:
    """The spec argument ``api.load`` takes for golden spec ``name``."""
    if name in GENERATED:
        from repro.synth.gen import GenConfig, generate_text

        return generate_text(GenConfig(**GENERATED[name]))
    return name


def partition_answer(session, algorithm: str) -> Dict[str, Any]:
    """One algorithm's full outcome: the API result plus its history.

    ``api.partition`` drops the improvement history, so the search
    result it is built from is recorded on the way through.
    """
    import repro.partition
    from repro import api

    seen = []
    run_algorithm = repro.partition.run_algorithm

    def recording(*args, **kwargs):
        seen.append(run_algorithm(*args, **kwargs))
        return seen[-1]

    repro.partition.run_algorithm = recording
    try:
        served = api.partition(
            api.PartitionRequest(spec=session.spec_name, algorithm=algorithm, seed=0),
            session=session,
        )
    finally:
        repro.partition.run_algorithm = run_algorithm
    (result,) = seen
    return {
        "cost": repr(result.cost),
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "history": [repr(value) for value in result.history],
        "mapping": digest(result.partition.object_mapping()),
        "api": digest(served.to_dict()),
    }


def timed_answer(session, algorithm: str, compiled=None, **params) -> Dict[str, Any]:
    """One search under a time constraint of half the start's system time.

    ``compiled`` is passed on to the search when given, so a test can
    compare a run on the session's compiled graph with one that builds
    its own.
    """
    from repro.estimate.exectime import ExecTimeEstimator
    from repro.partition import run_algorithm

    start = session.partition
    limit = ExecTimeEstimator(session.slif, start).system_time() / 2
    if compiled is not None:
        params["compiled"] = compiled
    result = run_algorithm(
        algorithm, session.slif, start.copy(), seed=0, time_constraint=limit,
        **params,
    )
    return {
        "cost": repr(result.cost),
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "history": [repr(value) for value in result.history],
        "mapping": digest(result.partition.object_mapping()),
    }


def taking_compiled(algorithms):
    """The ``algorithms`` whose search takes a compiled graph; passing
    one to the others changes nothing, since they ignore it."""
    from inspect import signature

    from repro.partition import ALGORITHMS

    return [
        algorithm
        for algorithm in algorithms
        if "compiled" in signature(ALGORITHMS[algorithm]).parameters
    ]


def timed_answers(session, algorithms, compiled=None, fast=True) -> Dict[str, Any]:
    """:func:`timed_answer` of each algorithm; with :data:`FAST` settings
    when ``fast``."""
    return {
        algorithm: timed_answer(
            session, algorithm, compiled, **(FAST.get(algorithm, {}) if fast else {})
        )
        for algorithm in algorithms
    }


@contextmanager
def constrained(session):
    """Give the session's graph binding size and I/O budgets.

    The bundled specs carry no constraints, so every default search
    starts at cost 0 and stops there.  This caps each
    software processor at 60% of its start size and each custom
    processor one pin short of a bus width, so the descents move
    objects, weigh size against pins and cut channels.
    """
    slif = session.slif
    saved = [(p, p.size_constraint, p.io_constraint) for p in slif.processors.values()]
    width = min(bus.bitwidth for bus in slif.buses.values())
    sizes = session.partition.object_mapping()
    for name, proc in slif.processors.items():
        if proc.is_custom:
            proc.io_constraint = max(1, width - 1)
        else:
            used = sum(
                slif.get_node(obj).size.get(proc.technology.name)
                for obj, comp in sizes.items()
                if comp == name
            )
            proc.size_constraint = max(1.0, 0.6 * used)
    try:
        yield
    finally:
        for proc, size, io in saved:
            proc.size_constraint = size
            proc.io_constraint = io


def explore_answer(session, jobs: int = 1, fleet=None) -> Dict[str, Any]:
    """The default sweep's front: canonical points plus rendered text."""
    from repro import api

    result = api.explore(
        api.ExploreRequest(spec=session.spec_name, jobs=jobs),
        session=session,
        fleet=fleet,
    )
    return {
        "evaluated": result.evaluated,
        "points": [
            {
                "hardware_size": repr(p["hardware_size"]),
                "system_time": repr(p["system_time"]),
                "label": p["label"],
                "mapping": digest(p["mapping"]),
            }
            for p in result.points
        ],
        "text": result.text,
    }


def collect() -> Dict[str, Any]:
    """Every golden answer, keyed by spec."""
    from repro import api

    answers: Dict[str, Any] = {"partition_timed": {}, "partition_timed_slow": {}}
    for name in BUNDLED + tuple(GENERATED):
        session = api.load(spec_text(name))
        if name in TIMED:
            with constrained(session):
                answers["partition_timed"][name] = timed_answers(
                    session, TIMED[name]
                )
        if name in TIMED_SLOW:
            algorithms, binding = TIMED_SLOW[name]
            with constrained(session) if binding else nullcontext():
                answers["partition_timed_slow"][name] = timed_answers(
                    session, algorithms, fast=False
                )
        answers[name] = {
            "explore": explore_answer(session),
            "partition": {
                algorithm: partition_answer(session, algorithm)
                for algorithm in ALGORITHMS
            },
        }
        if name in BUNDLED:
            with constrained(session):
                answers[name]["partition_constrained"] = {
                    algorithm: partition_answer(session, algorithm)
                    for algorithm in ALGORITHMS
                }
    return answers


if __name__ == "__main__":
    json.dump(collect(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
