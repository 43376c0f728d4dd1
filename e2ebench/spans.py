"""Spans recorded from outside the program, and the per-layer split.

The traced run installs wrappers (see :mod:`layers`) around the public
functions of each layer. A wrapper records one span per call: name,
start, end, the span open on the same thread when it began (its parent),
the request id it belongs to and one optional attribute. Spans stay in
memory and are written out once, when the process ends.

All timestamps come from ``time.monotonic``, which on Linux is the
system-wide ``CLOCK_MONOTONIC``: spans recorded by the benchmark, the
server and its forked shard workers share one time line.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

clock = time.monotonic


@dataclass
class Span:
    """One call into a layer.

    ``key`` is ``(pid, id)``; ``parent`` is the key of the span open on
    the same thread when this one began, or ``None``.
    """

    key: tuple
    parent: tuple | None
    name: str
    start: float
    end: float
    rid: str | None = None
    attr: object = None
    children: list = field(default_factory=list, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Per-process span store. Forked children start with an empty one."""

    def __init__(self) -> None:
        self.reset()
        os.register_at_fork(after_in_child=self.reset)

    def reset(self) -> None:
        self.pid = os.getpid()
        self.records: list[list] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, function, args, kwargs, tag):
        stack = self._stack()
        record = [next(self._ids), stack[-1][0] if stack else None, name,
                  None, clock(), 0.0, None]
        stack.append(record)
        try:
            result = function(*args, **kwargs)
        finally:
            record[5] = clock()
            stack.pop()
            self.records.append(record)
        if tag is not None:
            rid, attr = tag(args, kwargs, result)
            record[6] = attr
            if rid is not None:
                # The id is often known only when a call returns (the
                # ticket, the response): hand it to the open callers too.
                record[3] = rid
                for outer in stack:
                    if outer[3] is None:
                        outer[3] = rid
        return result

    def spans(self) -> list[Span]:
        return [_span(self.pid, *record) for record in self.records]

    def dump(self, directory: str) -> None:
        path = os.path.join(directory, f"spans-{self.pid}.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, rid, start, end, attr in self.records:
                handle.write(json.dumps(
                    [self.pid, sid, parent, name, rid, start, end, attr]
                ) + "\n")


def install(recorder: SpanRecorder, targets) -> None:
    """Replace each ``(owner, attribute, span name, tag)`` with a wrapper.

    ``tag(args, kwargs, result)`` returns ``(request id, attribute)`` for
    the span, or is ``None``.
    """
    for owner, attribute, name, tag in targets:
        original = getattr(owner, attribute)

        def wrapper(*args, _original=original, _name=name, _tag=tag, **kwargs):
            return recorder.call(_name, _original, args, kwargs, _tag)

        setattr(owner, attribute, functools.wraps(original)(wrapper))


def _span(pid, sid, parent, name, rid, start, end, attr) -> Span:
    return Span(key=(pid, sid),
                parent=(pid, parent) if parent is not None else None,
                name=name, start=start, end=end, rid=rid, attr=attr)


def load_spans(directory: str) -> list[Span]:
    """Every span file in ``directory``."""
    spans = []
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("spans-") and name.endswith(".jsonl")):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            spans.extend(_span(*json.loads(line)) for line in handle)
    return spans


def inherit_request_ids(spans: list[Span]) -> None:
    """Give a span without a request id the id of its nearest ancestor."""
    by_key = {span.key: span for span in spans}

    def resolve(span: Span) -> str | None:
        chain = []
        while span.rid is None and span.parent in by_key:
            chain.append(span)
            span = by_key[span.parent]
        for member in chain:
            member.rid = span.rid
        return span.rid

    for span in spans:
        resolve(span)


def link_children(spans: list[Span]) -> list[Span]:
    """Attach each span to its recorded parent; return the top-level spans."""
    by_key = {span.key: span for span in spans}
    roots = []
    for span in spans:
        parent = by_key.get(span.parent) if span.parent is not None else None
        if parent is None:
            roots.append(span)
        else:
            parent.children.append(span)
    return roots


def exclusive_times(root: Span) -> dict[str, float]:
    """Split ``root``'s interval among the spans of its tree, by name.

    Each instant of the root's interval goes to exactly one span: the
    deepest span active then, the latest-started one among equals. A
    child is first clipped to its parent's interval. Where children do
    not overlap, a span's share is its duration minus the part its
    children cover (its self time); spans on other threads or processes
    that overlap (a journal append beside the executor) split the
    instant instead of counting it twice. The shares therefore add up to
    the root's duration exactly.
    """
    events = []  # (time, order, depth, start, serial, name)
    serial = itertools.count()

    def walk(span: Span, low: float, high: float, depth: int) -> None:
        start, end = max(span.start, low), min(span.end, high)
        if end <= start:
            return
        number = next(serial)
        events.append((start, 1, depth, start, number, span.name))
        events.append((end, 0, depth, start, number, span.name))
        for child in span.children:
            walk(child, start, end, depth + 1)

    walk(root, root.start, root.end, 0)
    events.sort(key=lambda event: (event[0], event[1]))
    totals: dict[str, float] = defaultdict(float)
    active: list = []  # heap of (-depth, -start, -serial, name)
    ended: set[int] = set()
    previous = root.start
    for time_point, is_start, depth, start, number, name in events:
        while active and -active[0][2] in ended:
            heapq.heappop(active)
        if active and time_point > previous:
            totals[active[0][3]] += time_point - previous
        previous = time_point
        if is_start:
            heapq.heappush(active, (-depth, -start, -number, name))
        else:
            ended.add(number)
    return dict(totals)


def inclusive_stats(spans, names) -> dict[str, tuple[int, float]]:
    """``name -> (calls, total seconds)`` over spans with one of ``names``."""
    stats: dict[str, list] = {name: [0, 0.0] for name in names}
    for span in spans:
        entry = stats.get(span.name)
        if entry is not None:
            entry[0] += 1
            entry[1] += span.duration
    return {name: (calls, seconds) for name, (calls, seconds) in stats.items()}


def layer_table(title: str, rows: dict[str, float], wall: float, unit: str) -> str:
    """Rows (including ``other``) with their share of ``wall``."""
    lines = [f"{title}  (wall {wall:.4f} {unit})",
             f"  {'layer':<22} {unit:>10} {'share':>8}"]
    for name, value in sorted(rows.items(), key=lambda item: -item[1]):
        share = value / wall if wall else 0.0
        lines.append(f"  {name:<22} {value:>10.4f} {share:>8.1%}")
    total = sum(rows.values())
    lines.append(f"  {'sum of rows':<22} {total:>10.4f} "
                 f"{(total / wall if wall else 0.0):>8.1%}")
    return "\n".join(lines)
