"""perfbench: the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads, metrics, units and
regression bounds are listed in ``BENCHMARK.json``; ``perfbench/README.md``
explains each.  The report goes to standard output, and its last line
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``.  A wrong output or failed
operation makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def environment() -> dict:
    """What each result is stamped with."""
    from repro.estimate.kernel import kernel_backend

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "slif_kernel": kernel_backend() or "off",
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    result = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    measured = result.layer if args.trace else result.end_to_end()
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
        for m in declared
    }

    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"  {'operations':<38} {result.attempted:>14} "
          f"({result.failed} failed, {len(result.latencies)} timed)")
    for name, metric in metrics.items():
        moves = layers.MOVES.get(name, "") if args.trace else ""
        print(f"  {name:<38} {metric['value']:>14.6g} {metric['unit']:<6} {moves}")
    for name, (value, unit) in sorted(result.notes.items()):
        print(f"  {name:<38} {value:>14.6g} {unit}")
    for problem in result.failures:
        print(f"  FAILED: {problem}")

    workloads.OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "attempted": result.attempted, "failed": result.failed,
        "metrics": metrics,
        "notes": {k: {"value": v, "unit": u} for k, (v, u) in result.notes.items()},
    }
    out = workloads.OUT / (
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
