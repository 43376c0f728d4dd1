"""``serve_interactive`` and ``serve_bulk``: /assess through ``repro serve --workers 2``.

An untraced run is ``SEGMENTS`` server lifetimes of equal length. Each
starts a fresh server on port 0 with a fresh journal directory, sends
its own seeded request stream, stops the server with SIGTERM and checks
that no shard worker outlived it. Outputs are checked against the
service's own contracts (see :func:`check_outcomes`).

Shard workers are forked from the server, so one lifetime is one draw
of the address layout that sets how fast the whole fleet runs. A run's
figures are medians over its lifetimes, so up to two slow lifetimes (a
slow layout, or a slow spell of a shared host) leave them unmoved; each
lifetime's set-up time is a ``setup_s`` sample.
"""

from __future__ import annotations

import os
import threading
from collections import defaultdict
from statistics import median

from repro.faults.inventory import build_paper_inventory
from repro.service.client import HttpServiceClient
from repro.service.executor import RequestExecutor
from repro.service.journal import RequestJournal
from repro.service.requests import AssessRequest
from repro.service.scheduler import ServiceConfig
from repro.topology.presets import paper_topology
from repro.util.cancel import CancellationToken
from repro.util.errors import AdmissionRejected, ReproError

import layers
import loadgen
import spans
from loadgen import summary
from serverproc import ServerProcess, serve_argv

#: The server's ``--seed`` default; requests must name hosts of this
#: topology, and the canary reference is built from the same seed.
SERVICE_SEED = 1
RATE_PER_SECOND = 30.0
SEGMENTS = 5
WARMUP_REQUESTS = 6


def _hosts() -> list[str]:
    return list(paper_topology("tiny", seed=SERVICE_SEED).hosts)


def _sender(url: str):
    """``send(request)`` over one ``HttpServiceClient`` per sender thread.

    ``max_attempts=1``: a shed or a connection error is a failure of that
    request, never hidden by a client retry.
    """
    local = threading.local()

    def send(request):
        client = getattr(local, "client", None)
        if client is None:
            client = local.client = HttpServiceClient(url, timeout=60.0, max_attempts=1)
        try:
            response = client.assess(request.hosts, k=request.k,
                                      rounds=request.rounds,
                                      idempotency_key=request.key)
            return response, None, False
        except AdmissionRejected as exc:
            return None, f"shed: {exc}", True
        except ReproError as exc:
            return None, str(exc), False

    return send


class Phase:
    """One server lifetime: set-up, warm-up, measured stream, stop."""

    def __init__(self, ctx, name: str, span_dir: str | None):
        self.name = name
        base = os.path.join(ctx.workdir, name)
        self.journal_dir = os.path.join(base, "journal")
        self.server = ServerProcess(serve_argv(ctx.root, span_dir), ctx.env, base,
                                    self.journal_dir)
        self.setup_seconds = self.server.setup_seconds
        try:
            self.server.wait_for_workers()
        except BaseException:
            self.server.kill()
            raise
        self.send = _sender(self.server.url)
        self.warmup: list[loadgen.Outcome] = []
        self.outcomes: list[loadgen.Outcome] = []
        self.server_metrics: dict = {}
        self.peak_rss_mb = 0.0

    def warm(self, requests) -> None:
        self.warmup = loadgen.closed_loop(requests, self.send, seconds=1e9)

    def finish(self) -> None:
        self.server_metrics = self.server.metrics()
        self.peak_rss_mb = self.server.peak_rss_mb()
        self.server.stop()

    def close(self) -> None:
        if self.server.process.poll() is None:
            self.server.kill()


def _ok_assessment(ctx, outcome, rounds, label) -> bool:
    response = outcome.response
    if response is None:
        return False
    result = response.get("result") or {}
    estimate = result.get("estimate") or {}
    runtime = result.get("runtime") or {}
    problems = []
    if response.get("status") != "ok":
        problems.append(f"status {response.get('status')}")
    if estimate.get("rounds") != rounds:
        problems.append(f"rounds {estimate.get('rounds')} != {rounds}")
    if runtime.get("dropped_portions") or runtime.get("dropped_rounds"):
        problems.append("dropped portions")
    if problems:
        ctx.fail(f"{label} request {outcome.request.index}: {', '.join(problems)}")
        outcome.check_failed = True
        return False
    return True


def check_outcomes(ctx, phase: Phase) -> None:
    """The output checks that need no server: responses and the journal."""
    by_index = {o.request.index: o for o in phase.outcomes}
    executed = list(phase.warmup)
    for outcome in phase.outcomes:
        if outcome.response is None:
            continue
        request = outcome.request
        if request.replay_of is None:
            executed.append(outcome)
            _ok_assessment(ctx, outcome, request.rounds, phase.name)
            continue
        original = by_index.get(request.replay_of)
        if original is None or original.response is None:
            continue
        if (outcome.response.get("request_id") != original.response.get("request_id")
                or outcome.response.get("result") != original.response.get("result")):
            ctx.fail(f"{phase.name} replay {request.index} differs from "
                     f"request {request.replay_of}")
            outcome.check_failed = True
    for outcome in phase.warmup:
        _ok_assessment(ctx, outcome, outcome.request.rounds, phase.name + " warm-up")

    state = RequestJournal.scan(phase.journal_dir)
    completed = {rid: sum(e["event"] == "completed" for e in events)
                 for rid, events in state.events.items()}
    if state.pending:
        ctx.fail(f"{phase.name}: {len(state.pending)} journaled requests never finished")
    rids = [o.response["request_id"] for o in executed if o.response is not None]
    if sorted(rid for rid, count in completed.items() if count) != sorted(rids):
        ctx.fail(f"{phase.name}: journal completions do not match the executed requests")
    if any(count > 1 for count in completed.values()):
        ctx.fail(f"{phase.name}: a request completed more than once in the journal")
    keys = {o.request.key for o in executed if o.request.key is not None}
    if set(state.keys) != keys:
        ctx.fail(f"{phase.name}: journaled keys differ from the keys sent")


def check_canaries(ctx, phase: Phase) -> None:
    """Canary estimates must equal an in-process execution, bit for bit.

    The service seeds each request from (service seed, kind, key), so a
    ``RequestExecutor`` built here answers a keyed request with the same
    bits as whichever shard worker ran it.
    """
    config = ServiceConfig()
    topology = paper_topology("tiny", seed=SERVICE_SEED)
    executor = RequestExecutor(
        topology, build_paper_inventory(topology, seed=SERVICE_SEED + 1),
        service_seed=SERVICE_SEED, default_rounds=config.rounds,
        chunks=config.chunks,
    )
    checked = 0
    for outcome in phase.outcomes:
        request = outcome.request
        if not request.canary or outcome.response is None:
            continue
        reference = executor.run(
            "assess",
            AssessRequest(hosts=request.hosts, k=request.k, rounds=request.rounds,
                          idempotency_key=request.key),
            request_id="canary", token=CancellationToken(),
        ).to_dict()
        served = (outcome.response.get("result") or {}).get("estimate")
        if served != reference["result"]["estimate"]:
            ctx.fail(f"canary {request.key}: estimate {served} != "
                     f"reference {reference['result']['estimate']}")
            outcome.check_failed = True
        checked += 1
    if checked == 0:
        ctx.fail("no canary request completed")


def _failed(outcomes) -> int:
    return sum(o.failed for o in outcomes)


def _run_phase(ctx, kind, name, span_dir, seconds, label="s") -> Phase:
    """One server lifetime; ``label`` picks the seed's stream for it."""
    phase = Phase(ctx, name, span_dir)
    try:
        hosts = _hosts()
        if kind == "serve_interactive":
            phase.warm(loadgen.interactive_stream(
                ctx.seed, hosts, WARMUP_REQUESTS, RATE_PER_SECOND,
                canaries=0, label="warm"))
            count = int(seconds * RATE_PER_SECOND)
            stream = loadgen.interactive_stream(ctx.seed, hosts, count, RATE_PER_SECOND,
                                                label=label)
            phase.outcomes = loadgen.open_loop(stream, RATE_PER_SECOND, phase.send,
                                               threads=2)
        else:
            phase.warm(loadgen.bulk_stream(ctx.seed, hosts, WARMUP_REQUESTS,
                                           label="warm"))
            stream = loadgen.bulk_stream(ctx.seed, hosts, 100_000, label=label)
            phase.outcomes = loadgen.closed_loop(stream, phase.send, threads=2,
                                                 seconds=seconds)
        phase.finish()
    finally:
        phase.close()
    for outcome in phase.outcomes + phase.warmup:
        if outcome.error:
            ctx.say(f"{name}: request {outcome.request.index} failed: {outcome.error}")
    check_outcomes(ctx, phase)
    return phase


def _fresh(phase):
    return [o for o in phase.outcomes if o.request.replay_of is None and o.response]


def _replays(phase):
    return [o for o in phase.outcomes if o.request.replay_of is not None and o.response]


def _p50_ms(ctx, label: str, per_phase: list[list[float]]) -> tuple[float, str]:
    """Median over server lifetimes of each one's median latency, in ms.

    A run too short for every lifetime to complete such a request fails.
    """
    if not all(per_phase):
        ctx.fail(f"no {label} completed in some server lifetime; the run is too short")
        return 0.0, "ms"
    return median(median(latencies) for latencies in per_phase) * 1e3, "ms"


def _throughput(phase) -> float:
    """Completed requests per second of one lifetime's measured stream.

    From the first due time to the last completion: on the open loop it
    stays near the offered rate while the server keeps up, on the closed
    loop it is the server's capacity.
    """
    done = [o for o in phase.outcomes if o.response is not None]
    first = min(o.due for o in phase.outcomes)
    last = max(o.done for o in phase.outcomes)
    return len(done) / (last - first)


def end_to_end(ctx, kind: str) -> tuple[dict, int, int]:
    """Untraced run: the end-to-end metrics, their timings, the checks."""
    phases = [_run_phase(ctx, kind, f"segment-{i}", None, ctx.seconds / SEGMENTS,
                         label=f"s{i}")
              for i in range(SEGMENTS)]
    fresh = [[o.latency for o in _fresh(phase)] for phase in phases]
    outcomes = [o for phase in phases for o in phase.outcomes]
    ctx.say(summary("setup", [phase.setup_seconds for phase in phases],
                    unit="s", scale=1.0))
    ctx.say(summary(f"{kind} fresh latency", [t for ts in fresh for t in ts]))
    ctx.say(f"{kind} fresh p50 per server lifetime (ms): "
            + " ".join(f"{median(ts) * 1e3:.3f}" for ts in fresh if ts))
    metrics = {
        "setup_s": (median(phase.setup_seconds for phase in phases), "s"),
        "p50_ms": _p50_ms(ctx, f"{kind} fresh requests", fresh),
        "throughput_per_s": (median(_throughput(p) for p in phases), "1/s"),
    }
    if kind == "serve_interactive":
        replays, aged = [], 0
        for phase in phases:
            check_canaries(ctx, phase)
            by_index = {o.request.index: o for o in phase.outcomes}
            aged += sum(o.sent - by_index[o.request.replay_of].done >= 1.0
                        for o in _replays(phase))
            replays.append([o.latency for o in _replays(phase)])
        count = sum(len(r) for r in replays)
        ctx.say(f"replays of a key completed at least 1 s earlier: {aged} of {count}")
        ctx.say(summary("replay latency", [t for ts in replays for t in ts]))
        ctx.say(f"replay p50 over server lifetimes: "
                f"{_p50_ms(ctx, 'replays', replays)[0]:.3f} ms")
        ctx.say(summary("generator lateness", [o.late for o in outcomes]))
    # After every per-request check, the canaries' included.
    attempted, failed = len(outcomes), _failed(outcomes)
    metrics["ok_share"] = ((attempted - failed) / attempted, "share")
    metrics["peak_rss_mb"] = (median(phase.peak_rss_mb for phase in phases), "MiB")
    return metrics, attempted, failed


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------


def _request_trees(all_spans, outcomes):
    """One span tree per client request, rooted at the client's span.

    Server spans join a request by request id and by starting inside the
    client's send-to-receive interval (a replay carries its original's
    id, so the interval tells the two apart). Spans the handler thread
    did not open — the reader thread's journal and store work, and the
    shard worker's executor — hang under the request's ``fleet.assess``.
    """
    by_rid = defaultdict(list)
    for span in all_spans:
        if span.rid is not None:
            by_rid[span.rid].append(span)
    trees = []
    for number, outcome in enumerate(outcomes):
        rid = outcome.response["request_id"]
        members = [s for s in by_rid.get(rid, ())
                   if outcome.sent <= s.start <= outcome.done]
        for span in members:
            span.children = []
        root = spans.Span(("client", number), None, "other", outcome.sent, outcome.done)
        tops = spans.link_children(members)
        assess = next((s for s in members if s.name == "fleet.assess"), None)
        for span in tops:
            if span.name == "server.handler" or assess is None:
                root.children.append(span)
            else:
                assess.children.append(span)
        trees.append((outcome, root, members))
    return trees


def _split(trees, ctx, label, *, check_workers, server_pid):
    """Mean per-request layer rows (ms) and the table check."""
    if not trees:
        ctx.say(f"{label}: none completed in the traced phase")
        return {}
    rows = defaultdict(float)
    wall = 0.0
    missing_workers = 0
    for outcome, root, members in trees:
        for name, seconds in spans.exclusive_times(root).items():
            rows[name] += seconds
        wall += root.duration
        if check_workers and not any(
            s.name == "executor.run" and s.key[0] != server_pid for s in members
        ):
            missing_workers += 1
    n = len(trees)
    rows = {name: seconds / n * 1e3 for name, seconds in rows.items()}
    wall = wall / n * 1e3
    ctx.say(spans.layer_table(f"{label}: per request, {n} requests", rows, wall, "ms"))
    if abs(sum(rows.values()) - wall) > 1e-6 * wall or rows.get("other", 0.0) < 0:
        ctx.fail(f"{label}: layer rows do not add up to the wall time")
    if missing_workers:
        ctx.fail(f"{label}: {missing_workers} requests have no span from a shard worker")
    return rows


def _critical_path(group):
    """``(fleet.assess, its write-ahead append, executor.run)`` of one request.

    The write-ahead ``accepted`` append is the journal span ``submit``
    opened; the ticket is enqueued right before it. Spans ``submit``
    records after that overlap the execution and are off the path.
    """
    by_key = {span.key: span for span in group}
    assess = next((s for s in group if s.name == "fleet.assess"), None)
    execution = next((s for s in group if s.name == "executor.run"), None)
    accepted = next((s for s in group if s.name == "journal.append"
                     and getattr(by_key.get(s.parent), "name", None) == "fleet.submit"),
                    None)
    if None in (assess, accepted, execution):
        return None
    return assess, accepted, execution


def per_layer(ctx, kind: str) -> tuple[dict, int, int]:
    """Traced run: untraced phase, then the same seed against a traced server.

    Each phase runs half the seconds, so a traced run takes about as long
    as an untraced one.
    """
    untraced = _run_phase(ctx, kind, "untraced", None, ctx.seconds / 2)
    span_dir = os.path.join(ctx.workdir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    traced = _run_phase(ctx, kind, "traced", span_dir, ctx.seconds / 2)
    if kind == "serve_interactive":
        check_canaries(ctx, traced)

    all_spans = spans.load_spans(span_dir)
    server_pid = traced.server.process.pid
    key_rid = {o.request.key: o.response["request_id"]
               for o in traced.outcomes + traced.warmup
               if o.response is not None and o.request.key is not None}
    for span in all_spans:
        if span.name == "store.put" and span.rid is None:
            span.rid = key_rid.get(span.attr)
    spans.inherit_request_ids(all_spans)

    fresh = _fresh(traced)
    trees = _request_trees(all_spans, fresh)
    rows = _split(trees, ctx, f"{kind} fresh requests", check_workers=True,
                  server_pid=server_pid)
    members = [s for _, _, group in trees for s in group]
    n = len(fresh)
    metrics = {}

    def mean_ms(values):
        return (sum(values) / len(values) * 1e3 if values else 0.0, "ms")

    def durations(name, group=members):
        return [s.duration for s in group if s.name == name]

    latency = [o.done - o.sent for o in fresh]
    elapsed = [o.response["elapsed_seconds"] for o in fresh]
    queue = [o.response["queue_seconds"] for o in fresh]
    admission, transit = [], []
    for outcome, _, group in trees:
        steps = _critical_path(group)
        if steps is None:
            ctx.fail(f"{kind}: request {outcome.request.index} lacks a fleet span")
            continue
        assess, accepted, execution = steps
        dispatched = accepted.start + outcome.response["queue_seconds"]
        admission.append(accepted.end - assess.start)
        transit.append((execution.start - dispatched) + (assess.end - execution.end))
    metrics["server.http_ms"] = (rows.get("other", 0.0) + rows.get("server.handler", 0.0), "ms")
    metrics["fleet.submit_ms"] = mean_ms(admission)
    metrics["fleet.transit_ms"] = mean_ms(transit)
    metrics["fleet.queue_wait_ms"] = mean_ms(queue)
    counters = traced.server_metrics.get("counters", {})
    metrics["fleet.steals"] = (float(counters.get("fleet/steals", 0)), "count")
    attempted = len(traced.outcomes)
    metrics["fleet.shed_share"] = (sum(o.shed for o in traced.outcomes) / attempted, "share")
    appends = durations("journal.append")
    metrics["journal.appends_per_req"] = (len(appends) / n, "count")
    metrics["journal.append_ms"] = mean_ms(appends)
    metrics["store.put_ms"] = mean_ms(durations("store.put"))
    metrics["executor.run_ms"] = mean_ms(elapsed)
    metrics["executor.share"] = (sum(elapsed) / sum(latency), "share")
    step_metrics, assess_calls = layers.assessment_metrics(members, n)
    metrics["executor.chunks_per_req"] = (assess_calls / n, "count")
    metrics.update(step_metrics)

    if kind == "serve_interactive":
        replays = _replays(traced)
        replay_trees = _request_trees(all_spans, replays)
        _split(replay_trees, ctx, f"{kind} replays", check_workers=False,
               server_pid=server_pid)
        gets = [s.duration for _, _, g in replay_trees for s in g if s.name == "store.get"]
        metrics["store.get_ms"] = mean_ms(gets)
        metrics["store.replay_hit_share"] = (
            sum(bool(o.response.get("replayed")) for o in replays) / len(replays)
            if replays else 0.0, "share")
        base = untraced.outcomes
        metrics["store.replay_p50_ms"] = _p50_ms(
            ctx, "replays", [[o.latency for o in _replays(untraced)]])
        high = loadgen.tail([o.late for o in base])
        metrics["gen.late_ms"] = ((high[1] if high else max(o.late for o in base)) * 1e3, "ms")

    base_fresh = [o.latency for o in _fresh(untraced)]
    high = loadgen.tail(base_fresh)
    if high is not None:
        metrics["tail.pctl_ms"] = (high[1] * 1e3, "ms")
        metrics["tail.pctl"] = (high[0], "%")
    metrics["tail.samples"] = (float(len(base_fresh)), "count")
    untraced_latency = [o.done - o.sent for o in _fresh(untraced)]
    metrics["trace.overhead_share"] = (
        (sum(latency) / len(latency)) / (sum(untraced_latency) / len(untraced_latency)) - 1.0,
        "share")

    setup_spans = [s for s in all_spans
                   if s.key[0] == server_pid and s.name.startswith("setup.")]
    metrics["setup.substrate_s"] = (sum(s.duration for s in setup_spans), "s")
    metrics["setup.ready_s"] = (traced.setup_seconds, "s")
    outcomes = untraced.outcomes + traced.outcomes
    return metrics, len(outcomes), _failed(outcomes)


def run(kind: str, ctx, trace: bool):
    return per_layer(ctx, kind) if trace else end_to_end(ctx, kind)
