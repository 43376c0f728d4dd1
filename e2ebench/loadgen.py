"""Seeded request streams, open- and closed-loop senders, and the timing summary.

The program sees only the requests generated here; the workload seed is a
benchmark argument. Senders take the clock and the sleep function as
arguments so the due-time accounting can be checked under a fake clock.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from statistics import median

from spans import clock as monotonic

#: Rounds of an interactive (2-of-3) and a bulk (3-of-5) request.
INTERACTIVE_ROUNDS = 2_000
BULK_ROUNDS = 200_000
#: One interactive request in ``REPLAY_EVERY`` re-sends the key of a fresh
#: request due at least ``REPLAY_AGE_SECONDS`` earlier.
REPLAY_EVERY = 5
REPLAY_AGE_SECONDS = 2.0


@dataclass(frozen=True)
class Request:
    """One request of a stream.

    ``replay_of`` is the index of the earlier request whose key this one
    re-sends; ``canary`` marks requests whose estimate is checked against
    an in-process reference.
    """

    index: int
    hosts: tuple[str, ...]
    k: int
    rounds: int
    key: str | None
    replay_of: int | None = None
    canary: bool = False


@dataclass
class Outcome:
    """What happened to one sent request, on the sender's clock.

    ``check_failed`` marks a response that failed an output check.
    """

    request: Request
    due: float
    sent: float
    done: float
    response: dict | None = None
    error: str | None = None
    shed: bool = False
    check_failed: bool = False

    @property
    def failed(self) -> bool:
        """No response (an error or a shed), or a response that failed a check."""
        return self.response is None or self.check_failed

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to when it completed."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the sender was behind the request's due time."""
        return self.sent - self.due


def _hosts(rng: random.Random, hosts: list[str], count: int) -> tuple[str, ...]:
    return tuple(rng.sample(hosts, count))


def interactive_stream(
    seed: int,
    hosts: list[str],
    count: int,
    rate: float,
    *,
    canaries: int = 3,
    label: str = "s",
) -> list[Request]:
    """Keyed 2-of-3 requests; one in ``REPLAY_EVERY`` re-sends an old key.

    A replay targets a fresh request due at least ``REPLAY_AGE_SECONDS``
    earlier, so at the open-loop rate its original has long completed.
    The first requests, before any key is that old, are all fresh.
    ``label`` separates streams of one seed (the warm-up from the
    measured stream) in both their draws and their keys.
    """
    rng = random.Random(f"interactive:{label}:{seed}")
    stream: list[Request] = []
    fresh: list[int] = []
    min_age = int(REPLAY_AGE_SECONDS * rate)
    canary_slots = set(rng.sample(range(min(count, 10 * canaries)), canaries))
    for index in range(count):
        eligible = [i for i in fresh if i <= index - min_age]
        if eligible and rng.randrange(REPLAY_EVERY) == 0:
            original = stream[rng.choice(eligible)]
            stream.append(Request(index, original.hosts, original.k,
                                  original.rounds, original.key,
                                  replay_of=original.index))
            continue
        stream.append(Request(
            index, _hosts(rng, hosts, 3), 2, INTERACTIVE_ROUNDS,
            f"{label}{seed}-r{index}",
            canary=index in canary_slots,
        ))
        fresh.append(index)
    return stream


def bulk_stream(seed: int, hosts: list[str], count: int, *, label: str = "s"):
    """Unkeyed 3-of-5 requests."""
    rng = random.Random(f"bulk:{label}:{seed}")
    return [Request(i, _hosts(rng, hosts, 5), 3, BULK_ROUNDS, None)
            for i in range(count)]


def tail(values: list[float], beyond: int = 10):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)`` by rank: the value at sorted position
    ``n - beyond - 1`` has ``beyond`` samples after it and sits at the
    ``100 * (n - beyond) / n`` percentile. ``None`` below ``beyond + 1``
    samples.
    """
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


def summary(name: str, values: list[float], unit: str = "ms", scale: float = 1e3) -> str:
    """``name: p50 … | p<q> … | n …`` — the form every timing is printed in."""
    if not values:
        return f"{name}: no samples"
    text = f"{name}: p50 {median(values) * scale:.3f} {unit}"
    high = tail(values)
    if high is not None:
        text += f" | p{high[0]:.1f} {high[1] * scale:.3f} {unit}"
    return text + f" | n {len(values)}"


def open_loop(requests, rate, send, *, threads=2,
              clock=monotonic, sleep=None) -> list[Outcome]:
    """Send ``requests[i]`` ``i / rate`` seconds in, from ``threads`` senders.

    A sender takes the next request in order, sleeps until it is due and
    sends it; when every sender is busy the request goes out late, and
    its latency still counts from the due time. ``send(request)`` returns
    an :class:`Outcome`-shaped tuple ``(response, error, shed)``.
    """
    sleep = sleep or time.sleep
    start = clock()
    outcomes: list[Outcome] = []
    lock = threading.Lock()
    cursor = iter(requests)

    def sender() -> None:
        while True:
            with lock:
                request = next(cursor, None)
            if request is None:
                return
            due = start + request.index / rate
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            outcome = _send_one(request, due, send, clock)
            with lock:
                outcomes.append(outcome)

    _run_threads(sender, threads)
    outcomes.sort(key=lambda outcome: outcome.request.index)
    return outcomes


def closed_loop(requests, send, *, threads=2, seconds, clock=monotonic) -> list[Outcome]:
    """``threads`` clients, each sending its next request when one completes.

    Latency counts from the send; clients stop taking requests after
    ``seconds``.
    """
    start = clock()
    outcomes: list[Outcome] = []
    lock = threading.Lock()
    cursor = iter(requests)

    def client() -> None:
        while clock() - start < seconds:
            with lock:
                request = next(cursor, None)
            if request is None:
                return
            outcome = _send_one(request, None, send, clock)
            with lock:
                outcomes.append(outcome)

    _run_threads(client, threads)
    outcomes.sort(key=lambda outcome: outcome.request.index)
    return outcomes


def _send_one(request, due, send, clock) -> Outcome:
    sent = clock()
    response, error, shed = send(request)
    done = clock()
    return Outcome(request, sent if due is None else due, sent, done,
                   response=response, error=error, shed=shed)


def _run_threads(target, count: int) -> None:
    workers = [threading.Thread(target=target, daemon=True) for _ in range(count)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()

