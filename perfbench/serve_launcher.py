"""Start ``slif serve`` with the benchmark's layer wrappers installed.

    PYTHONPATH=src python3 perfbench/serve_launcher.py \\
        [--spans FILE] [--obs on|off] -- serve --port 0

With ``--spans`` the same wrappers the in-process traced run uses, plus
the serving layer's, record spans inside the server process; they are
written to FILE when the server exits after its SIGTERM drain.
``--obs off`` keeps ``repro.obs`` disabled although the CLI enables it
per command, which is how the benchmark measures the cost of leaving
obs on.  Everything after ``--`` goes to ``repro.cli.main`` unchanged.
"""

from __future__ import annotations

import argparse
import sys

import layers
from tracer import Recorder


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="write recorded spans here on exit")
    parser.add_argument("--obs", choices=("on", "off"), default="on")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    from repro import cli, obs

    if args.obs == "off":
        obs.enable = lambda: None
    recorder = None
    if args.spans:
        recorder = Recorder()
        layers.install(recorder, serve=True)
    try:
        return cli.main(cli_argv)
    finally:
        if recorder is not None:
            recorder.write(args.spans)


if __name__ == "__main__":
    sys.exit(main())
