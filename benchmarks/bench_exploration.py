"""Section 3/5 exploration claim: thousands of partitions per second.

"Such speed enables rapid feedback during interactive design, and
permits the use of algorithms that explore thousands of possible
designs."  SpecSyn "permits rapid exploration of partitions of
functionality among processors, ASICs, memories and bus components"
(Section 6).

We benchmark the partitioning algorithms over the fuzzy and ether
graphs under a tight CPU size constraint, and assert the evaluation
throughput (cost evaluations per second, via incremental estimation)
reaches thousands per second — the regime the paper's argument needs.
"""

import time

import pytest

from conftest import report
from repro.partition import run_algorithm
from repro.partition.cost import PartitionCost


def constrained(system, fraction=0.5):
    """Constrain the CPU so feasible partitions require offloading."""
    sizes = system.report().component_sizes
    system.slif.processors["CPU"].size_constraint = sizes["CPU"] * fraction
    system.slif.processors["HW"].size_constraint = None
    return system


@pytest.mark.parametrize("example", ["fuzzy", "ether"])
@pytest.mark.parametrize("algorithm", ["greedy", "group_migration", "annealing"])
def test_partitioning_algorithm(benchmark, built_systems, example, algorithm):
    system = constrained(built_systems[example])

    def run():
        return run_algorithm(
            algorithm, system.slif, system.partition, seed=0
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.partition.validate() == []
    benchmark.extra_info["evaluations"] = result.evaluations
    benchmark.extra_info["final_cost"] = result.cost
    seconds = benchmark.stats.stats.mean
    rate = result.evaluations / seconds if seconds > 0 else float("inf")
    report(
        [
            f"exploration / {example} / {algorithm}: "
            f"{result.evaluations} evaluations, cost {result.cost:.4f}, "
            f"{rate:,.0f} evaluations/s",
        ]
    )


def test_thousands_of_evaluations_per_second(benchmark, built_systems):
    """The core throughput claim, measured directly on the inner loop."""
    system = constrained(built_systems["ether"])
    evaluator = PartitionCost(system.slif, system.partition.copy())
    inc = evaluator.inc

    def sweep():
        n = 0
        for node in range(inc.cg.n_nodes):
            src = inc.comp_of[node]
            for dst in evaluator.pool(node):
                if dst != src:
                    evaluator.score_move(node, src, dst)
                    n += 1
        return n

    count = 0
    started = time.perf_counter()
    while time.perf_counter() - started < 0.4 and count <= 50_000:
        count += sweep()
    elapsed = time.perf_counter() - started
    benchmark.pedantic(sweep, rounds=1)
    rate = count / elapsed
    report(
        [
            f"incremental cost evaluations on ether: {rate:,.0f}/s "
            f"({count} in {elapsed:.2f}s)",
            "  (paper: algorithms exploring thousands of possible designs "
            "need estimates in well under a millisecond)",
        ]
    )
    assert rate > 2000


def test_greedy_finds_feasible_partitions(benchmark, built_systems):
    """Outcome check: under the constraint, exploration actually finds a
    feasible design (cost 0) for every example."""
    rows = []

    def run_all():
        results = {}
        for example in ("ans", "ether", "fuzzy", "vol"):
            system = constrained(built_systems[example])
            results[example] = run_algorithm(
                "greedy", system.slif, system.partition
            )
        return results

    for example, result in benchmark.pedantic(run_all, rounds=1).items():
        rows.append(
            f"{example}: cost {result.cost:.4f} after "
            f"{result.evaluations} evaluations"
        )
        assert result.cost == 0.0
    report(["greedy feasibility under 50% CPU constraint:", *rows])
