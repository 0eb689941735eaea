"""Server process of the ``serve_http`` workload.

Usage: ``python server_main.py STATS_PATH TRACE(0|1) -- <repro serve args>``

Runs ``repro.cli.main(["serve", ...])`` in this process. With TRACE 1 the
layer wrappers are installed first, and every SIGUSR1 writes a snapshot of
the counters to ``STATS_PATH.<n>`` so the load generator can cut them into
phases. After the server stops (SIGINT), the process writes its peak
resident memory to ``STATS_PATH``.
"""

from __future__ import annotations

import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def _write_json(path: str, payload) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def main(argv) -> int:
    stats_path, trace, separator, serve_args = argv[0], argv[1] == "1", argv[2], argv[3:]
    if separator != "--":
        raise SystemExit(__doc__)
    from common import peak_rss_mb
    from repro.cli import main as repro_main

    # SIGINT is how the load generator stops the server; a process started
    # in the background may inherit it ignored
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if trace:
        from tracing import Tracer, install_serve_layers

        tracer = Tracer()
        install_serve_layers(tracer)
        snapshots = [0]

        def on_snapshot(signum, frame):
            snapshots[0] += 1
            _write_json(f"{stats_path}.{snapshots[0]}", tracer.snapshot())

        signal.signal(signal.SIGUSR1, on_snapshot)
    code = repro_main(serve_args)
    _write_json(
        stats_path,
        {"peak_rss_mb": peak_rss_mb()},
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
