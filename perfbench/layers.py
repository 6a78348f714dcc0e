"""Per-layer metrics of a traced run, named as in the README.

``X.ms`` is the self time of every span named ``X`` summed over the
traced ops (milliseconds), ``X.calls`` their count.  The per-level
multilevel figures ``coarsen.L<k>.ms`` / ``refine.L<k>.ms`` instead sum
the *inclusive* time of the calls that make up level ``k``'s step
(matching, ``contract_graph``, ``match_processors`` and
``contract_system``; ``refine_metric``), level 0 being the finest.
Every workload prints every name; a layer its ops never enter reads 0.
"""

from __future__ import annotations

from collections import defaultdict

#: Coarsening/refinement levels reported: ``multilevel_512`` ops take 8 or
#: 9 levels (levels L0-L6 or L0-L7 here).  Deeper levels are listed in a
#: note instead.
LEVELS = 8

_COARSEN = {
    "core.multilevel.heavy_edge_matching",
    "core.multilevel.contract_graph",
    "core.multilevel.match_processors",
    "core.multilevel.contract_system",
}

_TIMED = [
    "core.incremental.probe_swap", "core.incremental.commit",
    "core.incremental.comm_swap", "core.incremental.delta_swaps",
]
_SELF_MS = [
    "core.incremental.build", "core.evaluate", "baselines.annealing", "baselines.tabu",
    "topology.distance_table", "core.multilevel.contract_system",
    "core.multilevel.initial_map", "core.multilevel.project",
    "core.ideal.lower_bound", "core.evaluate.total_time",
    "service.shard.gateway.forward", "service.fingerprint.scenario",
    "service.submit", "service.store.put", "service.fingerprint", "service.cache",
    "api.sweep.build_instance", "workloads.layered_random", "clustering.random",
    "topology.build", "core.ideal", "core.critical", "core.initial", "core.refine",
    "metrics.analytic", "metrics.simulated",
]
#: Figures a workload module sets itself (read from outcomes or /stats).
_FROM_RUN = [
    ("core.incremental.accept_ratio", "ratio"),
    ("api.outcome.evaluations", "count"),
    ("core.multilevel.levels", "count"),
    ("core.multilevel.refine_probes", "count"),
    ("core.multilevel.refine_swaps", "count"),
    ("service.cache.hits", "count"),
    ("service.executed", "count"),
    ("client.polls_per_job", "polls/job"),
    ("trace.overhead_ratio", "ratio"),
]

PER_LAYER: list[tuple[str, str]] = (
    [(f"{n}.{k}", "count" if k == "calls" else "ms") for n in _TIMED for k in ("calls", "ms")]
    + [(f"{n}.ms", "ms") for n in _SELF_MS]
    + [(f"core.multilevel.{step}.L{k}.ms", "ms") for step in ("coarsen", "refine") for k in range(LEVELS)]
    + _FROM_RUN
)


def level_times(spans) -> dict[str, float]:
    """Inclusive ms per coarsening/refinement level, from tagged spans."""
    by_op: dict = defaultdict(list)
    for _, name, start, end, _, op, tag in spans:
        if name in _COARSEN or name == "core.multilevel.refine":
            by_op[op].append((name, tag, end - start))
    out: dict[str, float] = defaultdict(float)
    for items in by_op.values():
        sizes = sorted({tag for name, tag, _ in items if name in _COARSEN}, reverse=True)
        level = {size: k for k, size in enumerate(sizes)}
        for name, tag, seconds in items:
            step = "refine" if name == "core.multilevel.refine" else "coarsen"
            out[f"core.multilevel.{step}.L{level.get(tag, LEVELS)}.ms"] += seconds * 1000.0
    return out


def layer_metrics(result, tracer) -> dict[str, dict]:
    """Every ``PER_LAYER`` metric for one traced run."""
    totals = defaultdict(lambda: [0, 0.0, 0.0], tracer.layer_totals())
    for name, (calls, self_s, incl_s) in result.fleet_layers.items():
        cell = totals[name]
        cell[0] += calls
        cell[1] += self_s
        cell[2] += incl_s
    values: dict[str, float] = {}
    for name in _TIMED:
        values[f"{name}.calls"] = float(totals[name][0])
        values[f"{name}.ms"] = totals[name][1] * 1000.0
    for name in _SELF_MS:
        values[f"{name}.ms"] = totals[name][1] * 1000.0
    levels = level_times(tracer.spans)
    for k in range(LEVELS):
        for step in ("coarsen", "refine"):
            key = f"core.multilevel.{step}.L{k}.ms"
            values[key] = levels.get(key, 0.0)
    probes = totals["core.incremental.probe_swap"][0]
    values["core.incremental.accept_ratio"] = (
        totals["core.incremental.commit"][0] / probes if probes else 0.0
    )
    for name, _ in _FROM_RUN:
        if name in result.layers:
            values[name] = float(result.layers[name][0])
        values.setdefault(name, 0.0)
    deeper = sorted(set(levels) - set(values))
    if deeper:
        result.notes.append(f"levels beyond L{LEVELS - 1} not reported: {sorted(deeper)}")
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in PER_LAYER}
