"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import sys

import pytest

# make tests/_helpers.py importable from test files in subdirectories
sys.path.insert(0, os.path.dirname(__file__))

from _helpers import build_demo_graph, build_demo_partition  # noqa: E402

from repro.synth.techlib import default_library  # noqa: E402


@pytest.fixture
def demo_graph():
    return build_demo_graph()


@pytest.fixture
def demo_partition(demo_graph):
    return build_demo_partition(demo_graph)


@pytest.fixture
def library():
    return default_library()


@pytest.fixture
def fast_backoff(monkeypatch):
    """A short retry schedule (10 ms doubling up to 50 ms), so tests
    whose chunks retry stay fast."""
    from repro.explore import engine

    monkeypatch.setattr(engine, "BACKOFF", 0.01)
    monkeypatch.setattr(engine, "MAX_DELAY", 0.05)


@pytest.fixture(scope="session")
def fuzzy_system():
    from repro.api import build_system

    return build_system("fuzzy")


@pytest.fixture(scope="session")
def all_spec_graphs():
    """Session-cached SLIF graphs for all four benchmarks (unannotated)."""
    from repro.specs import SPEC_NAMES, spec_profile, spec_source
    from repro.vhdl.slif_builder import build_slif_from_source

    return {
        name: build_slif_from_source(
            spec_source(name), name=name, profile=spec_profile(name)
        )
        for name in SPEC_NAMES
    }
