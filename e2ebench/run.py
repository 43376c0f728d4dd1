"""The repository's end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see README.md): ``serve_interactive``, ``serve_bulk`` and
``search_tiny``. With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer split, and the lines before it hold a layer table per workload.
Every output check runs inside the command; a failed check prints
``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_interactive", "serve_bulk", "search_tiny")
#: Every end-to-end metric and its unit; every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "throughput_per_s": "1/s",
    "ok_share": "share",
    "peak_rss_mb": "MiB",
}


class Context:
    """Where a run lives, what it was asked to do, and what it found."""

    def __init__(self, root, seed, seconds, workdir):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.checks: list[str] = []  # failed check descriptions
        self.lines: list[str] = []  # human-readable report

    def fail(self, message: str) -> None:
        self.checks.append(message)

    def say(self, line: str) -> None:
        self.lines.append(line)


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"error: no program to benchmark under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    sys.path.insert(0, HERE)
    workdir = os.path.join(ROOT, ".e2ebench-work", str(os.getpid()))
    ctx = Context(ROOT, args.seed, args.seconds, workdir)
    try:
        if args.workload == "search_tiny":
            import search_workload

            metrics, attempted, failed = search_workload.run(ctx, bool(args.trace))
        else:
            import serve_workloads

            metrics, attempted, failed = serve_workloads.run(
                args.workload, ctx, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    if args.trace:
        import layers

        metrics = layers.complete(metrics)
    elif {name: unit for name, (_, unit) in metrics.items()} != END_TO_END:
        raise KeyError(f"{args.workload} reports {sorted(metrics)}, "
                       f"not the end-to-end metrics {sorted(END_TO_END)}")
    for line in ctx.lines:
        print(line)
    for message in ctx.checks:
        print(f"CHECK FAILED: {message}")
    correct = not ctx.checks
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
