"""``search_tiny``: a move-budget search, as ``repro search`` runs it.

Defaults of ``repro search``: incremental assessment, batch 1, no
kernel flag. The problem is tiny, K=4 of N=5 at 10,000 rounds, under
``MoveBudgetTemperatureSchedule(6000)`` with ``max_iterations=6000``, so
the trajectory does not depend on host speed. A run makes a fixed number
of searches, one per sub-seed drawn from the workload seed, and reports
means over them. Each search is a fresh process, as each ``repro search``
is, so no one process's memory layout sets the whole run's figure:

    python3 e2ebench/search_workload.py SEED [SPAN_DIR]

runs one search and prints its outcome as one JSON line. With
``SPAN_DIR`` it first installs the layer wrappers and a
``MetricsRegistry``, writes its spans there and adds the registry's
counters to the outcome.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
from statistics import fmean, median
from types import SimpleNamespace

from repro.app.structure import ApplicationStructure
from repro.core.anneal import MoveBudgetTemperatureSchedule
from repro.core.api import AssessmentConfig
from repro.core.assessment import ReliabilityAssessor
from repro.core.plan import DeploymentPlan
from repro.core.search import DeploymentSearch, SearchSpec
from repro.faults.inventory import build_paper_inventory
from repro.topology.presets import paper_topology
from repro.util.errors import ConfigurationError
from repro.util.metrics import MetricsRegistry

import layers
import spans
from loadgen import summary

TOPOLOGY_SEED = 1
K, N, ROUNDS, MOVES = 4, 5, 10_000, 6_000
#: Rounds of the independent re-assessment of each best plan.
CHECK_ROUNDS = 400_000
#: The re-assessment band, in standard errors of the difference between
#: the two estimates. See the README: a 2-sigma (95%) band fails one
#: search in twenty on sampling noise alone.
CHECK_SIGMAS = 4.0
#: A nominal cost of one search: an untraced run of ``--seconds S`` makes
#: ``S / NOMINAL_SEARCH_SECONDS`` searches whatever the host's speed.
NOMINAL_SEARCH_SECONDS = 3.5
TRACED_SEARCHES = 2
#: Constructions per search process; its ``setup_seconds`` is their median.
SETUPS = 15
CHILD_TIMEOUT_SECONDS = 120.0


def _substrate():
    topology = paper_topology("tiny", seed=TOPOLOGY_SEED)
    return topology, build_paper_inventory(topology, seed=TOPOLOGY_SEED + 1)


def _search(topology, inventory, seed: int, metrics):
    """The search ``repro search --seed SEED`` builds on this substrate."""
    return DeploymentSearch.from_config(
        topology, inventory,
        AssessmentConfig(rounds=ROUNDS, rng=seed + 2, mode="incremental",
                         metrics=metrics),
        incremental=True, rng=seed + 4, batch_size=1,
        temperature_schedule=MoveBudgetTemperatureSchedule(MOVES),
    )


def _spec():
    # The move budget ends the search; the time budget never does.
    return SearchSpec(ApplicationStructure.k_of_n(K, N), desired_reliability=1.0,
                      max_seconds=3600.0, forbid_shared_rack=True,
                      max_iterations=MOVES)


def sub_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(f"search:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def child_main(seed: int, span_dir: str | None = None) -> int:
    """Build the search ``SETUPS`` times, run the last one, print the outcome."""
    recorder = registry = None
    if span_dir is not None:
        recorder = spans.SpanRecorder()
        spans.install(recorder, layers.search_targets())
        registry = MetricsRegistry()
    setups, substrates = [], []
    for _ in range(SETUPS):
        started = spans.clock()
        topology, inventory = _substrate()
        built = spans.clock()
        search = _search(topology, inventory, seed, registry)
        setups.append(spans.clock() - started)
        substrates.append(built - started)
    if recorder is not None:
        # Only the search itself goes into the trace and the counters.
        recorder.records.clear()
        registry.reset()
    started = spans.clock()
    result = search.search(_spec())
    seconds = spans.clock() - started
    best = result.best_assessment.estimate
    outcome = {
        "setup_seconds": median(setups),
        "substrate_seconds": median(substrates),
        "seconds": seconds,
        "iterations": result.iterations,
        "placements": [[c, list(h)] for c, h in result.best_plan.placements],
        "score": best.score,
        "variance": best.variance,
        "candidates": result.candidates_proposed,
        "plans_assessed": result.plans_assessed,
        "symmetric_skips": result.plans_skipped_symmetric,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        recorder.dump(span_dir)
        outcome["counters"] = registry.snapshot()["counters"]
    print(json.dumps(outcome))
    return 0


class Search:
    """One search in a fresh process, and its outcome."""

    def __init__(self, ctx, seed: int, substrate, span_dir: str | None = None):
        command = [sys.executable, os.path.abspath(__file__), str(seed)]
        if span_dir is not None:
            command.append(span_dir)
        completed = subprocess.run(
            command, env=ctx.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_SECONDS, check=False,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"search {seed} exited with {completed.returncode}: "
                               f"{completed.stderr.strip()[-400:]}")
        outcome = json.loads(completed.stdout.splitlines()[-1])
        self.seed = seed
        self.topology, self.inventory = substrate
        self.setup_seconds = outcome["setup_seconds"]
        self.substrate_seconds = outcome["substrate_seconds"]
        self.seconds = outcome["seconds"]
        self.iterations = outcome["iterations"]
        self.best_plan = DeploymentPlan.from_mapping(dict(outcome["placements"]))
        self.best = SimpleNamespace(score=outcome["score"], variance=outcome["variance"])
        self.candidates = outcome["candidates"]
        self.plans_assessed = outcome["plans_assessed"]
        self.symmetric_skips = outcome["symmetric_skips"]
        self.peak_rss_mb = outcome["peak_rss_mb"]
        self.counters = outcome.get("counters", {})


def _searches(ctx, seeds, span_dir=None) -> list[Search]:
    substrate = _substrate()
    return [Search(ctx, seed, substrate, span_dir) for seed in seeds]


def check(ctx, run) -> bool:
    """A valid 5-host plan whose score a fresh assessor reproduces."""
    plan = run.best_plan
    structure = _spec().structure
    hosts = plan.hosts()
    try:
        plan.validate_against(run.topology, structure)
    except ConfigurationError as exc:
        ctx.fail(f"search {run.seed}: invalid best plan: {exc}")
        return False
    failures = len(ctx.checks)
    racks = {run.topology.rack_of(host) for host in hosts}
    if len(set(hosts)) != N or len(racks) != N:
        ctx.fail(f"search {run.seed}: best plan {hosts} is not {N} hosts on {N} racks")
    if run.iterations != MOVES:
        ctx.fail(f"search {run.seed}: {run.iterations} moves, budget {MOVES}")
    fresh = ReliabilityAssessor.from_config(
        run.topology, run.inventory,
        AssessmentConfig(rounds=CHECK_ROUNDS, rng=run.seed + 7),
    ).assess(plan, structure).estimate
    best = run.best
    spread = math.sqrt(best.variance + fresh.variance)
    distance = abs(best.score - fresh.score)
    ctx.say(f"search {run.seed}: {run.seconds:.3f} s, best {best.score:.6f}, re-assessed "
            f"{fresh.score:.6f} ({distance / spread:.2f} standard errors)")
    if distance > CHECK_SIGMAS * spread:
        ctx.fail(f"search {run.seed}: best_score {best.score} is outside "
                 f"{fresh.score} +/- {CHECK_SIGMAS} standard errors")
    return len(ctx.checks) == failures


def search_count(seconds: float) -> int:
    return max(1, int(seconds / NOMINAL_SEARCH_SECONDS))


def end_to_end(ctx):
    runs = _searches(ctx, sub_seeds(ctx.seed, search_count(ctx.seconds)))
    failed = sum(not check(ctx, run) for run in runs)
    ctx.say(summary("setup", [r.setup_seconds for r in runs], unit="s", scale=1.0))
    ctx.say(summary("search", [r.seconds for r in runs], unit="s", scale=1.0))
    ctx.say(f"best score, median over searches: {median(r.best.score for r in runs)}")
    # The search is the operation: its latency is the time to spend the
    # move budget, its throughput moves per second. Set-up and throughput
    # are means over searches: how fast a fresh process runs the same
    # search varies by tens of per cent, and the mean of a handful of
    # such draws jumps less from run to run than their median.
    metrics = {
        "setup_s": (fmean(r.setup_seconds for r in runs), "s"),
        "p50_ms": (median(r.seconds for r in runs) * 1e3, "ms"),
        "throughput_per_s": (sum(r.iterations for r in runs)
                             / sum(r.seconds for r in runs), "1/s"),
        "ok_share": ((len(runs) - failed) / len(runs), "share"),
        "peak_rss_mb": (median([r.peak_rss_mb for r in runs]), "MiB"),
    }
    return metrics, len(runs), failed


def per_layer(ctx):
    """Untraced searches, then the same sub-seeds again with wrappers on."""
    seeds = sub_seeds(ctx.seed, TRACED_SEARCHES)
    untraced = _searches(ctx, seeds)
    failed = sum(not check(ctx, run) for run in untraced)
    span_dir = os.path.join(ctx.workdir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    traced = _searches(ctx, seeds, span_dir)
    for before, after in zip(untraced, traced):
        if (before.best.score != after.best.score
                or before.best_plan != after.best_plan):
            ctx.fail(f"search {after.seed}: tracing changed the best plan")

    all_spans = spans.load_spans(span_dir)
    roots = [s for s in spans.link_children(all_spans) if s.name == "search.run"]
    count = len(roots)
    if count != len(traced):
        ctx.fail(f"search_tiny: {count} search spans for {len(traced)} searches")
    wall = sum(r.seconds for r in traced)
    rows: dict[str, float] = {}
    for root in roots:
        shares = spans.exclusive_times(root)
        if abs(sum(shares.values()) - root.duration) > 1e-6 * root.duration:
            ctx.fail("search_tiny: layer shares do not add up to the search span")
        for name, seconds in shares.items():
            rows[name] = rows.get(name, 0.0) + seconds
    # The loop's own time, plus the little the wrapper adds around it.
    rows["other"] = rows.pop("search.run") + wall - sum(r.duration for r in roots)
    table = {name: seconds / count for name, seconds in rows.items()}
    ctx.say(spans.layer_table(f"search_tiny: per search, {count} searches",
                              table, wall / count, "s"))
    if abs(sum(table.values()) - wall / count) > 1e-6 * wall or table["other"] < 0:
        ctx.fail("search_tiny: layer rows do not add up to the wall time")

    stats = spans.inclusive_stats(all_spans, ["search.propose", "search.symmetry",
                                              "search.score", "search.accept"])
    metrics = {}
    for name, (_, seconds) in stats.items():
        metrics[f"{name}_ms"] = (seconds / count * 1e3, "ms")
    metrics["search.other_ms"] = (table["other"] * 1e3, "ms")
    metrics["search.other_share"] = (table["other"] / (wall / count), "share")
    candidates = sum(r.candidates for r in traced) / count
    assessed = sum(r.plans_assessed for r in traced) / count
    metrics["search.candidates"] = (candidates, "count")
    metrics["search.plans_assessed"] = (assessed, "count")
    metrics["search.symmetric_skips"] = (
        sum(r.symmetric_skips for r in traced) / count, "count")
    metrics["search.useful_share"] = (assessed / candidates, "share")

    metrics.update(layers.assessment_metrics(all_spans, count)[0])
    for cache, counters in (("closure", ("closure/host",)),
                            ("route", ("route/host", "route/pair")),
                            ("sample", ("sample/component",)),
                            ("faulttree", ("faulttree/subject",)),
                            ("plan", ("plan_cache",))):
        hits = sum(r.counters.get(f"{c}/hit", 0) for r in traced for c in counters)
        misses = sum(r.counters.get(f"{c}/miss", 0) for r in traced for c in counters)
        metrics[f"incremental.{cache}_hit_share"] = (
            hits / (hits + misses) if hits + misses else 0.0, "share")
    metrics["search.best_score"] = (median([r.best.score for r in untraced]), "score")
    metrics["setup.substrate_s"] = (median([r.substrate_seconds for r in untraced]), "s")
    metrics["setup.ready_s"] = (median([r.setup_seconds for r in untraced]), "s")
    metrics["trace.overhead_share"] = (
        wall / sum(r.seconds for r in untraced) - 1.0, "share")
    return metrics, len(untraced) + len(traced), failed


def run(ctx, trace: bool):
    return per_layer(ctx) if trace else end_to_end(ctx)


if __name__ == "__main__":
    sys.exit(child_main(int(sys.argv[1]), *sys.argv[2:3]))
