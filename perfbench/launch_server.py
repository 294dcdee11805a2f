"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/launch_server.py SPANS.json serve --index idx.npz --port 0

Installs :func:`tracing.install`, then calls ``repro.cli.main`` with the
remaining arguments.  Spans stay in memory and are written to ``SPANS.json``
when the server exits (SIGINT stops it cleanly).
"""

from __future__ import annotations

import sys

from tracing import Tracer, install


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    spans_path, argv = sys.argv[1], sys.argv[2:]
    # Server span ids start far above the benchmark process's own, so the
    # two span lists merge without collisions.
    tracer = install(Tracer(first_id=10**9))
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
