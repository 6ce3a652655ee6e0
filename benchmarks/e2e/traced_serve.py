"""``repro serve --port 0`` with the benchmark's layer wrappers installed.

The served workloads start this launcher in place of the shipped command
when they trace or inject a slowdown; the process topology stays the same
(one server process, spawned by the load generator).  Spans are kept in
memory and written to ``--trace-out`` after the server has drained.  Solves
that the default ``asyncio`` backend runs on threads of this process are
captured; solves on process backends would run in other processes and are
not.

Usage::

    python benchmarks/e2e/traced_serve.py [--trace-out FILE] [--inject-slowdown LAYER=F]
"""

from __future__ import annotations

import argparse
import os
import sys

import tracing
from common import require_source


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--inject-slowdown", default=None, metavar="LAYER=F")
    args = parser.parse_args(argv)
    require_source()
    tracer = tracing.Tracer(pid=os.getpid()) if args.trace_out else None
    tracing.install(tracer, args.inject_slowdown)
    from repro.cli import main as repro_main

    status = repro_main(["serve", "--port", "0"])
    if tracer is not None:
        tracer.dump(args.trace_out)
    return status


if __name__ == "__main__":
    sys.exit(main())
