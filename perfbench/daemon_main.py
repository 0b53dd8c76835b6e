"""Start the scheduler daemon with the benchmark's span wrappers installed.

Usage::

    python3 perfbench/daemon_main.py SPANS_OUT daemon --socket PATH

Everything after ``SPANS_OUT`` goes to ``repro.cli.main`` unchanged; when
the daemon returns (after a ``shutdown`` request) the spans are written
to ``SPANS_OUT`` as JSON.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.spans import Tracer, install
    from repro import cli

    spans_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
