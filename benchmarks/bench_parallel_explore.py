"""Parallel exploration scaling: N workers ≈ N× candidate throughput.

The paper's estimation-speed claim is really a throughput claim — one
candidate costs O(graph), so the "thousands of possible designs"
(Sections 3 and 5) should scale with available cores.  This bench
measures the same Pareto sweep at ``jobs=1`` vs ``jobs=4`` and reports
the speedup, and it re-checks the engine's correctness contract along
the way: the parallel front must be byte-identical to the sequential
one.

The speedup assertion only runs on machines with at least 4 CPU cores;
on smaller hosts (including 1-CPU CI containers) the bench still
measures and reports both timings — process spawn overhead with no
parallel hardware underneath would make any threshold meaningless.
"""

import os
import time

import pytest

from conftest import report
from _helpers import kernel_disabled
from repro.partition.pareto import explore_pareto
from repro.api import build_system

#: Sweep sized so per-chunk work dominates pool setup on real hardware:
#: 1 + 16*(1+12) = 209 candidate descents over the ether graph.
SWEEP = dict(constraint_steps=16, random_starts=12, seed=0)
#: Required speedup at 4 workers (acceptance: >= 2.5x on >= 4 cores).
MIN_SPEEDUP = 2.5


def timed_explore(system, jobs):
    started = time.perf_counter()
    front = explore_pareto(system.slif, system.partition, jobs=jobs, **SWEEP)
    return front, time.perf_counter() - started


def front_signature(front):
    return (
        front.evaluated,
        [
            (p.system_time, p.hardware_size, p.mapping, p.label)
            for p in front.points
        ],
    )


@pytest.mark.parametrize("example", ["ether"])
def test_parallel_explore_speedup(benchmark, example):
    system = build_system(example)

    sequential, seq_seconds = timed_explore(system, jobs=1)
    parallel, par_seconds = timed_explore(system, jobs=4)

    # correctness before speed: same bytes at any worker count
    assert front_signature(parallel) == front_signature(sequential)
    assert parallel.render() == sequential.render()

    benchmark.pedantic(
        lambda: explore_pareto(
            system.slif, system.partition, jobs=4, **SWEEP
        ),
        rounds=1,
        iterations=1,
    )

    speedup = seq_seconds / par_seconds if par_seconds > 0 else float("inf")
    cores = os.cpu_count() or 1
    benchmark.extra_info["jobs1_seconds"] = seq_seconds
    benchmark.extra_info["jobs4_seconds"] = par_seconds
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["cores"] = cores
    report(
        [
            f"parallel explore / {example}: {sequential.evaluated} candidates, "
            f"jobs=1 {seq_seconds:.3f}s vs jobs=4 {par_seconds:.3f}s "
            f"-> {speedup:.2f}x on {cores} cores",
            f"front identical at jobs=1 and jobs=4: "
            f"{len(parallel.points)} points",
        ]
    )
    if cores >= 4:
        assert speedup >= MIN_SPEEDUP, (
            f"expected >= {MIN_SPEEDUP}x at jobs=4 on {cores} cores, "
            f"got {speedup:.2f}x"
        )
    else:
        report(
            [
                f"speedup assertion skipped: only {cores} core(s); "
                f"needs >= 4 for a meaningful parallel measurement"
            ]
        )


@pytest.mark.parametrize("example", ["ether"])
def test_explore_kernel_path(benchmark, example):
    """Same sweep with the batch kernel on vs off: identical front, less time.

    The engine scores each chunk's candidates through one
    ``BatchKernel.evaluate`` sweep; with the kernel disabled (as on a
    graph with a call cycle) every candidate pays the memoized
    reference walk.  The front must be byte-identical either way — the
    kernel can only agree or abstain.
    """
    system = build_system(example)

    with kernel_disabled():
        reference, ref_seconds = timed_explore(system, jobs=1)
    kernel_front, kernel_seconds = timed_explore(system, jobs=1)

    assert front_signature(kernel_front) == front_signature(reference)
    assert kernel_front.render() == reference.render()

    benchmark.pedantic(
        lambda: explore_pareto(
            system.slif, system.partition, jobs=1, **SWEEP
        ),
        rounds=1,
        iterations=1,
    )
    speedup = (
        ref_seconds / kernel_seconds if kernel_seconds > 0 else float("inf")
    )
    benchmark.extra_info["kernel_off_seconds"] = ref_seconds
    benchmark.extra_info["kernel_on_seconds"] = kernel_seconds
    benchmark.extra_info["speedup"] = speedup
    report(
        [
            f"explore kernel path / {example}: {reference.evaluated} "
            f"candidates, kernel off {ref_seconds:.3f}s vs kernel on "
            f"{kernel_seconds:.3f}s -> {speedup:.2f}x, fronts identical",
        ]
    )
