"""Which public functions the traced run wraps, and under which span name.

A span name is ``<layer>.<step>``; the layer table groups by it. Each
entry is ``(owner, attribute, span name, tag)`` for
:func:`spans.install`; a tag returns ``(request id, attribute)``.
"""

from __future__ import annotations

import spans

#: Every per-layer metric and its unit. A traced run reports all of them;
#: a layer the workload never enters reads 0.
PER_LAYER = {
    "server.http_ms": "ms",
    "fleet.submit_ms": "ms",
    "fleet.transit_ms": "ms",
    "fleet.queue_wait_ms": "ms",
    "fleet.steals": "count",
    "fleet.shed_share": "share",
    "journal.appends_per_req": "count",
    "journal.append_ms": "ms",
    "store.put_ms": "ms",
    "store.get_ms": "ms",
    "store.replay_hit_share": "share",
    "store.replay_p50_ms": "ms",
    "executor.run_ms": "ms",
    "executor.share": "share",
    "executor.chunks_per_req": "count",
    **{f"{step}.{kind}": "ms"
       for step in ("assess.closure", "sampling.sample", "faults.faulttree",
                    "routing.route", "sampling.estimate")
       for kind in ("per_call_ms", "per_req_ms")},
    "sampling.rounds_per_s": "1/s",
    "search.propose_ms": "ms",
    "search.symmetry_ms": "ms",
    "search.score_ms": "ms",
    "search.accept_ms": "ms",
    "search.other_ms": "ms",
    "search.other_share": "share",
    "search.candidates": "count",
    "search.plans_assessed": "count",
    "search.symmetric_skips": "count",
    "search.useful_share": "share",
    "search.best_score": "score",
    **{f"incremental.{cache}_hit_share": "share"
       for cache in ("closure", "route", "sample", "faulttree", "plan")},
    "setup.substrate_s": "s",
    "setup.ready_s": "s",
    "tail.pctl_ms": "ms",
    "tail.pctl": "%",
    "tail.samples": "count",
    "gen.late_ms": "ms",
    "trace.overhead_share": "share",
}


def _arg(index, name):
    """Positional argument ``index`` (``self`` included) or keyword ``name``.

    ``index`` is ``None`` for a keyword-only parameter.
    """
    def pick(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[index] if index is not None and len(args) > index else None
    return pick


def _rid_arg(index, name):
    pick = _arg(index, name)
    return lambda args, kwargs, result: (pick(args, kwargs), None)


def _attr_arg(index, name):
    pick = _arg(index, name)
    return lambda args, kwargs, result: (None, pick(args, kwargs))


def assessment_targets() -> list:
    """core.assessment with sampling, faults and routing (both engines)."""
    from repro.core import assessment, evaluation, incremental
    from repro.faults import faulttree
    from repro.sampling import dagger
    from repro.service import executor

    targets = [
        (assessment.ReliabilityAssessor, "assess", "assess.call", None),
        (assessment.ReliabilityAssessor, "closure_for", "assess.closure", None),
        (incremental.IncrementalAssessor, "assess", "assess.call", None),
        (incremental.IncrementalAssessor, "closure_for", "assess.closure", None),
        (dagger.ExtendedDaggerSampler, "sample", "sampling.sample",
         _attr_arg(2, "rounds")),
        (dagger.CommonRandomDaggerSampler, "component_failed_rounds",
         "sampling.sample", _attr_arg(3, "rounds")),
        (faulttree.FaultTree, "evaluate", "faults.faulttree", None),
        (evaluation.StructureEvaluator, "evaluate", "routing.route", None),
    ]
    # Imported by name into each caller's namespace: wrap every binding.
    for module in (assessment, incremental, executor):
        targets.append(
            (module, "estimate_from_results", "sampling.estimate", None)
        )
    return targets


def service_targets() -> list:
    """service.server, .fleet, .journal, .store, .executor and setup."""
    from repro.faults import inventory
    from repro.service import executor, fleet, journal, server, store
    from repro.topology import presets

    return [
        (presets, "paper_topology", "setup.topology", None),
        (inventory, "build_paper_inventory", "setup.inventory", None),
        (server._Handler, "do_POST", "server.handler", None),
        (fleet.FleetSupervisor, "assess", "fleet.assess",
         lambda args, kwargs, result: (result.request_id, None)),
        (fleet.FleetSupervisor, "submit", "fleet.submit",
         lambda args, kwargs, result: (result.id, None)),
        (journal.RequestJournal, "accepted", "journal.append", _rid_arg(1, "request_id")),
        (journal.RequestJournal, "started", "journal.append", _rid_arg(1, "request_id")),
        (journal.RequestJournal, "completed", "journal.append", _rid_arg(1, "request_id")),
        (journal.RequestJournal, "cancelled", "journal.append", _rid_arg(1, "request_id")),
        (store.ResultStore, "put", "store.put", _attr_arg(1, "key")),
        (store.ResultStore, "get", "store.get", _attr_arg(1, "key")),
        (executor.RequestExecutor, "run", "executor.run",
         _rid_arg(None, "request_id")),
    ] + assessment_targets()


def search_targets() -> list:
    """core.search around the assessment layers."""
    from repro.core import objectives, plan, search, transforms, incremental

    return [
        (search.DeploymentSearch, "search", "search.run", None),
        (plan.DeploymentPlan, "propose_move", "search.propose", None),
        (plan.MoveDescriptor, "apply", "search.propose", None),
        (transforms.BatchSymmetryFilter, "equivalent_move", "search.symmetry", None),
        (incremental.IncrementalAssessor, "score_plans", "search.score", None),
        (search, "accept_neighbor", "search.accept", None),
        (objectives.ReliabilityObjective, "delta", "search.accept", None),
    ] + assessment_targets()


ASSESS_STEPS = ("assess.closure", "sampling.sample", "faults.faulttree",
                "routing.route", "sampling.estimate")


def complete(metrics: dict) -> dict:
    """All of :data:`PER_LAYER`, in its order, 0 where not measured."""
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"per-layer metrics missing from PER_LAYER: {sorted(unknown)}")
    return {name: metrics.get(name, (0.0, unit)) for name, unit in PER_LAYER.items()}


def assessment_metrics(span_list, requests: int) -> dict:
    """Per-call and per-request time of each assessment step."""
    metrics = {}
    stats = spans.inclusive_stats(span_list, ASSESS_STEPS + ("assess.call",))
    for name in ASSESS_STEPS:
        calls, seconds = stats[name]
        metrics[f"{name}.per_call_ms"] = (seconds / calls * 1e3 if calls else 0.0, "ms")
        metrics[f"{name}.per_req_ms"] = (seconds / requests * 1e3, "ms")
    rounds = sum(s.attr or 0 for s in span_list if s.name == "sampling.sample")
    sample_seconds = stats["sampling.sample"][1]
    metrics["sampling.rounds_per_s"] = (
        rounds / sample_seconds if sample_seconds else 0.0, "1/s")
    return metrics, stats["assess.call"][0]
