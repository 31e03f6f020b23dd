"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark regenerates one artifact of the paper's evaluation
(Figure 4's table, the Section 5 format comparison, the preprocessing
speed claims).  Alongside pytest-benchmark's timing table, each bench
prints the paper-vs-measured row it reproduces, so running

    pytest benchmarks/ --benchmark-only -s

produces the full evaluation in one shot.

Observability hook: run with ``SLIF_OBS=1`` in the environment to
enable the ``repro.obs`` instrumentation registry around each benchmark
and attach its snapshot (counters, gauges, histograms) to the
benchmark's ``extra_info`` — visible in ``--benchmark-json`` output.
Instrumentation is left disabled by default so the measured timings
stay representative of production (uninstrumented) runs.
"""

from __future__ import annotations

import os
import sys

import pytest

# the benches share the test suite's helpers (tests/_helpers.py)
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tests"))


def paper_row(example: str) -> dict:
    from repro.specs import PAPER_FIGURE4

    return PAPER_FIGURE4[example]


@pytest.fixture(scope="session")
def spec_sources():
    """(source text, profile) for all four benchmarks, loaded once."""
    from repro.specs import SPEC_NAMES, spec_profile, spec_source

    return {
        name: (spec_source(name), spec_profile(name)) for name in SPEC_NAMES
    }


@pytest.fixture(scope="session")
def built_systems():
    """Fully-built DesignSystems for all four benchmarks."""
    from repro.api import build_system

    return {name: build_system(name) for name in ("ans", "ether", "fuzzy", "vol")}


@pytest.fixture(autouse=True)
def obs_snapshot(request):
    """Attach a ``repro.obs`` registry snapshot to each benchmark result.

    Opt-in via ``SLIF_OBS=1`` so default benchmark runs measure the
    instrumentation-disabled (one branch per hot-path point) code.
    """
    from repro import obs

    capture = os.environ.get("SLIF_OBS") == "1"
    if capture:
        obs.reset()
        obs.enable()
    yield
    if capture:
        obs.disable()
        if "benchmark" in request.fixturenames:
            benchmark = request.getfixturevalue("benchmark")
            benchmark.extra_info["obs"] = obs.snapshot()
        obs.reset()


def report(lines):
    """Print a reproduction row block (visible with -s / in captured logs)."""
    print()
    for line in lines:
        print(f"  [repro] {line}")
