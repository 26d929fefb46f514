"""Run ``semdns serve`` with span recorders around each server-side layer.

Usage: python3 bench/traced_serve.py SPANS.json serve --zone-file ... [serve options]

The spans stay in memory and are written to SPANS.json when the process
receives SIGTERM, after which it exits at once.
"""

from __future__ import annotations

import os
import signal
import sys

from tracing import Tracer, trace_server_layers


def main(argv: list[str]) -> int:
    out_path, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    trace_server_layers(tracer)

    def stop(signum, frame):
        tracer.dump(out_path)
        os._exit(0)

    signal.signal(signal.SIGTERM, stop)
    from semdns import cli
    return cli.main(serve_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
