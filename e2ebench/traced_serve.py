"""``repro serve`` with the layer wrappers installed, for the traced run.

Usage: ``python traced_serve.py SPAN_DIR serve [repro serve options]``.

Wrappers are installed before the fleet forks, so the shard workers
inherit them. The supervisor writes its spans when ``serve`` returns
(after SIGTERM has drained it); each shard worker writes its own when
its main function returns on the supervisor's ``stop``.
"""

from __future__ import annotations

import os
import sys


def main(argv: list[str]) -> int:
    span_dir, serve_argv = argv[0], argv[1:]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import layers
    import spans
    from repro import cli
    from repro.service import fleet

    recorder = spans.SpanRecorder()
    spans.install(recorder, layers.service_targets())
    worker_main = fleet.shard_worker_main

    def traced_worker_main(*args, **kwargs):
        try:
            worker_main(*args, **kwargs)
        finally:
            recorder.dump(span_dir)

    fleet.shard_worker_main = traced_worker_main
    try:
        return cli.main(serve_argv)
    finally:
        recorder.dump(span_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
