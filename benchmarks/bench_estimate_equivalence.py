"""Facade estimates on a gen-10k spec against the reference estimator.

``api.estimate``, ``api.estimate_many`` and the report ``api.partition``
returns are all scored on the session's batch kernel, and the reference
:class:`~repro.estimate.engine.Estimator` runs only where the kernel
abstains.  ``tests/properties/test_prop_kernel.py`` checks the kernel
against the reference on small graphs; this runs the facade once at the
scale of the ``open-gen10k`` workload: a ``slif gen`` spec with 10,000
behaviors whose CPU size budget and ASIC pin budget bind (as
``tests/_golden.constrained`` sets them).  A seeded tenth of the
behaviors starts on the ASIC, so channels are cut: the six estimates
carry both a size and a pin violation, the greedy result a pin one.

Each of these must be byte-equal, in canonical JSON, to
``EstimateResult.from_report(Estimator(...).report())``:

- ``api.estimate`` for each of the six ``(mode, concurrent)`` pairs;
- one ``api.estimate_many`` call over the six pairs;
- the report of a greedy ``api.partition``.

The timings are printed; none is asserted.  Run with::

    PYTHONPATH=src python -m pytest -q --benchmark-only -s \\
        benchmarks/bench_estimate_equivalence.py
"""

import random
import time

import pytest

import _golden
from conftest import report
from repro import api
from repro.api.types import canonical_json
from repro.core.channels import FreqMode
from repro.estimate.engine import Estimator
from repro.partition import run_algorithm
from repro.synth.gen import GenConfig, generate_text

SEED = 1
PAIRS = [(mode, concurrent) for mode in FreqMode for concurrent in (False, True)]


@pytest.fixture(scope="module")
def session():
    session = api.load(generate_text(GenConfig(behaviors=10_000, seed=SEED)))
    with _golden.constrained(session):
        behaviors = list(session.slif.behaviors)
        for name in random.Random(SEED).sample(behaviors, len(behaviors) // 10):
            session.partition.assign(name, "HW")
        yield session


def timed(run):
    started = time.perf_counter()
    value = run()
    return value, time.perf_counter() - started


def encoded(result) -> str:
    return canonical_json(result.to_dict())


def reference(session, partition, mode=FreqMode.AVG, concurrent=False) -> str:
    report = Estimator(session.slif, partition, mode, concurrent).report()
    return encoded(api.EstimateResult.from_report(report, graph_key=session.key))


def test_estimates_match_reference(benchmark, session):
    expected, reference_s = timed(
        lambda: [reference(session, session.partition, m, c) for m, c in PAIRS]
    )
    for text in expected:
        assert '"metric":"size"' in text and '"metric":"io"' in text
    requests = [
        api.EstimateRequest(spec="gen10k", mode=m.value, concurrent=c)
        for m, c in PAIRS
    ]
    # the first call compiles the session's kernel
    singles, single_s = timed(
        lambda: [api.estimate(r, session=session) for r in requests]
    )
    assert [encoded(r) for r in singles] == expected
    many = benchmark.pedantic(
        lambda: api.estimate_many(requests, session=session),
        rounds=1, iterations=1,
    )
    assert [encoded(r) for r in many] == expected
    report(
        [
            f"estimates / gen-10k, six pairs: reference reports "
            f"{reference_s:.2f} s, six api.estimate calls {single_s:.2f} s "
            f"(incl. the kernel compile), all byte-equal; estimate_many "
            f"in the benchmark row",
        ]
    )


def test_partition_report_matches_reference(benchmark, session):
    request = api.PartitionRequest(spec="gen10k", algorithm="greedy", seed=SEED)
    served = benchmark.pedantic(
        lambda: api.partition(request, session=session), rounds=1, iterations=1
    )
    result = run_algorithm("greedy", session.slif, session.partition.copy(), seed=SEED)
    assert served.mapping == result.partition.object_mapping()
    expected, reference_s = timed(lambda: reference(session, result.partition))
    assert encoded(served.estimate) == expected
    assert '"metric":"io"' in expected  # greedy meets the size budget
    report(
        [
            f"partition / gen-10k, greedy: {served.iterations} passes, report "
            f"byte-equal to the reference ({reference_s:.2f} s)",
        ]
    )
