"""Slow time-constrained searches against their golden answers.

``tests/partition/test_golden_answers.py`` pins short searches under a
time constraint of half the start's system time on the bundled specs.
This checks the slower ones recorded in the ``partition_timed_slow``
section of ``tests/golden/search_answers.json``: group migration and
greedy multi-start at default settings on ``ether`` under binding size
and pin budgets, and greedy on the generated ``gen300`` spec under the
time constraint alone.  Each must give the pinned cost, iterations,
evaluations, history and mapping, both on a compiled graph of its own
and on the session's.

The times are printed; none is asserted.  Run with::

    PYTHONPATH=src python -m pytest -q --benchmark-only -s \\
        benchmarks/bench_time_equivalence.py
"""

import json
import time
from contextlib import nullcontext

import _golden
from conftest import report
from repro import api


def test_slow_timed_searches_match_the_golden_answers(benchmark):
    with open(_golden.GOLDEN_PATH) as fh:
        golden = json.load(fh)["partition_timed_slow"]
    sessions = {name: api.load(_golden.spec_text(name)) for name in golden}

    def run_all():
        times = {}
        for name, (algorithms, binding) in _golden.TIMED_SLOW.items():
            session = sessions[name]
            with _golden.constrained(session) if binding else nullcontext():
                for label, shared in (("own", None), ("shared", session.kernel().cg)):
                    started = time.perf_counter()
                    got = _golden.timed_answers(session, algorithms, shared, fast=False)
                    times[f"{name} {label}"] = time.perf_counter() - started
                    assert got == golden[name], (name, label)
        return times

    times = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report(
        [
            "time-constrained searches, golden answers: "
            + ", ".join(f"{key} {seconds:.2f} s" for key, seconds in times.items())
            + "; all equal",
        ]
    )
