"""Batch-kernel throughput: flat-array sweeps vs memoized walks.

Exploration is estimation in a loop — Section 5's "thousands of
possible designs" all pay one `evaluate_design_point` walk over the
access graph.  The :class:`~repro.estimate.kernel.BatchKernel`
compiles the graph once into flat arrays and scores a whole batch of
candidates as array sweeps, so the per-candidate cost drops to a few
table reads.  This bench measures both paths on the same 1k candidate
batch per bundled spec and asserts the kernel is at least 3x faster.
It wins by constant factors (flat lists instead of a memoized walk),
not by vectorising.

Candidates are *explore-like*: copies of the spec's seed partition
with objects randomly reassigned but the channel mapping untouched,
exactly the shape `explore_pareto`'s movers generate.  That shape is
what the kernel's fast path is built for (object keys in graph order,
one cached channel-to-bus vector); fully random channel assignments
would convert a fresh bus vector per candidate instead.

Timing interleaves reference and kernel rounds and takes the min, so
slow drift (thermal, cache pressure) hits both sides evenly.
Correctness is re-checked in-bench: every kernel result must be
repr-identical to the reference walk's.
"""

import gc
import random
import time

import pytest

from conftest import report
from repro.estimate.kernel import BatchKernel
from repro.partition.pareto import evaluate_design_point

SPECS = ("ans", "ether", "fuzzy", "vol")
N_CANDIDATES = 1000
ROUNDS = 5
#: Floor: kernel >= 3x the memoized walk.
MIN_SPEEDUP = 3.0


def explore_like_candidates(slif, base, count):
    """`count` copies of `base` with objects reassigned, channels kept."""
    processors = list(slif.processors)
    var_pool = processors + list(slif.memories)
    behaviors = list(slif.behaviors)
    variables = list(slif.variables)
    out = []
    for i in range(count):
        rng = random.Random(i)
        part = base.copy()
        for b in behaviors:
            part.assign(b, rng.choice(processors))
        for v in variables:
            part.assign(v, rng.choice(var_pool))
        out.append((part, f"c{i}"))
    return out


def run_reference(slif, candidates):
    return [
        evaluate_design_point(slif, part, ["HW"], label)
        for part, label in candidates
    ]


def timed_interleaved(slif, kernel, candidates):
    """Min-of-ROUNDS for both paths, alternating so drift is shared."""
    ref_s = kernel_s = float("inf")
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(ROUNDS):
            started = time.perf_counter()
            ref = run_reference(slif, candidates)
            ref_s = min(ref_s, time.perf_counter() - started)
            started = time.perf_counter()
            got = kernel.evaluate(candidates, ["HW"])
            kernel_s = min(kernel_s, time.perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
    return ref, got, ref_s, kernel_s


@pytest.mark.parametrize("example", list(SPECS))
def test_kernel_batch_speedup(benchmark, built_systems, example):
    system = built_systems[example]
    slif = system.slif
    candidates = explore_like_candidates(slif, system.partition, N_CANDIDATES)

    kernel = BatchKernel.for_graph(slif)
    ref, got, ref_s, kernel_s = timed_interleaved(slif, kernel, candidates)

    # correctness before speed: byte-identical design points, no abstentions
    assert len(got) == len(ref)
    for point, expected in zip(got, ref):
        assert point is not None
        assert repr(point) == repr(expected)

    benchmark.pedantic(
        lambda: kernel.evaluate(candidates, ["HW"]),
        rounds=3,
        iterations=1,
    )

    speedup = ref_s / kernel_s if kernel_s > 0 else float("inf")
    per_candidate_us = kernel_s / len(candidates) * 1e6
    benchmark.extra_info["candidates"] = len(candidates)
    benchmark.extra_info["reference_seconds"] = ref_s
    benchmark.extra_info["kernel_seconds"] = kernel_s
    benchmark.extra_info["speedup"] = speedup
    report(
        [
            f"batch kernel / {example}: {len(candidates)} candidates, "
            f"reference {ref_s * 1e3:.1f} ms vs kernel "
            f"{kernel_s * 1e3:.1f} ms -> {speedup:.1f}x "
            f"({per_candidate_us:.1f} us/candidate)",
        ]
    )
    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x kernel speedup on {example}, "
        f"got {speedup:.2f}x"
    )
