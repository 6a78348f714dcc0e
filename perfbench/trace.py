"""Spans around the program's public layer calls, recorded from outside.

The program itself is not instrumented: :class:`Instrumentation` swaps
each named public function or method for a wrapper that records a span
(name, start, end, parent, op id) and restores the originals on
:meth:`Instrumentation.remove`.  A function is replaced under every name
any loaded ``repro`` module binds it to, so ``from .x import f`` call
sites are covered too.

Spans live in memory and are written once, at the end.  Calls that run
thousands of times per op (the delta evaluators' probes and commits)
are *aggregated*: each (parent span, name) pair keeps a call count and
a summed duration instead of one record per call, which keeps a traced
multilevel run within a few MB.

A span's self time is its duration minus the time its child spans (and
aggregated hot calls) cover; children run on the parent's thread and do
not overlap, so the covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Thread-aware span recorder."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, tag)
        self.hot: dict[tuple, list] = defaultdict(lambda: [0, 0.0])  # (parent, op, name) -> [calls, s]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.op = None  # op id stamped on spans opened outside any span

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, tag=None):
        """``fn`` wrapped in a span; ``tag(args)`` may label the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            op = parent[1] if parent else tracer.op
            stack.append((span_id, op))
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                label = tag(args) if tag is not None else None
                tracer.spans.append(
                    (span_id, name, start, end, parent[0] if parent else None, op, label)
                )

        return traced

    def wrap_hot(self, name: str, fn):
        """``fn`` counted and timed into its parent's aggregate."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack = tracer._stack()
                parent = stack[-1] if stack else (None, tracer.op)
                cell = tracer.hot[(parent[0], parent[1], name)]
                cell[0] += 1
                cell[1] += elapsed

        return traced

    # -- reduction ---------------------------------------------------------

    def layer_totals(self) -> dict[str, list]:
        """``name -> [calls, self seconds, inclusive seconds]``."""
        covered: dict[int, float] = defaultdict(float)
        for span_id, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        for (parent, _, _), (_, seconds) in self.hot.items():
            if parent is not None:
                covered[parent] += seconds
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for span_id, name, start, end, _, _, _ in self.spans:
            cell = totals[name]
            cell[0] += 1
            cell[1] += (end - start) - covered.get(span_id, 0.0)
            cell[2] += end - start
        for (_, _, name), (calls, seconds) in self.hot.items():
            cell = totals[name]
            cell[0] += calls
            cell[1] += seconds
            cell[2] += seconds
        return dict(totals)

    def write(self, path) -> None:
        """Every span and aggregate as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op, tag in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "tag": tag,
                }) + "\n")
            for (parent, op, name), (calls, seconds) in self.hot.items():
                fh.write(json.dumps({
                    "aggregate": name, "parent": parent, "op": op,
                    "calls": calls, "seconds": seconds,
                }) + "\n")


class Instrumentation:
    """Installs wrappers on named targets and removes them again."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple] = []

    def replace(self, original, wrapper) -> None:
        """Rebind ``original`` to ``wrapper`` wherever a ``repro`` module
        binds it, under any name."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def function(self, module: str, attr: str, name: str, tag=None) -> None:
        """Wrap the function ``module.attr`` in a span named ``name``."""
        original = getattr(sys.modules[module], attr)
        self.replace(original, self.tracer.wrap(name, original, tag))

    def method(self, cls, attr: str, name: str, tag=None, hot=False) -> None:
        """Wrap ``cls.attr`` (seen by subclasses that do not override it)."""
        original = cls.__dict__[attr]
        wrapper = self.tracer.wrap_hot(name, original) if hot else self.tracer.wrap(name, original, tag)
        self._undo.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def remove(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


def _size_tag(args) -> int:
    """Node count of a level's graph or machine (first positional arg)."""
    first = args[0]
    return int(getattr(first, "num_tasks", None) or first.num_nodes)


def instrument_core(inst: Instrumentation) -> None:
    """Mapper, evaluator, topology and multilevel layers."""
    import repro.api.adapters  # noqa: F401  (binds the names patched below)
    from repro.baselines import annealing, tabu  # noqa: F401
    from repro.core import incremental, multilevel  # noqa: F401
    from repro.core.incremental import CommVolumeDelta, DeltaEvaluator
    from repro.topology.base import SystemGraph

    m = inst.method
    m(DeltaEvaluator, "probe_swap", "core.incremental.probe_swap", hot=True)
    for commit in ("swap", "apply_swap", "revert"):
        m(DeltaEvaluator, commit, "core.incremental.commit", hot=True)
    m(DeltaEvaluator, "__init__", "core.incremental.build")
    m(DeltaEvaluator, "evaluate", "core.evaluate")
    m(CommVolumeDelta, "swap", "core.incremental.comm_swap", hot=True)
    m(CommVolumeDelta, "delta_swaps", "core.incremental.delta_swaps", hot=True)
    m(SystemGraph, "__init__", "topology.distance_table")

    f = inst.function
    f("repro.baselines.annealing", "anneal_mapping", "baselines.annealing")
    f("repro.baselines.tabu", "tabu_mapping", "baselines.tabu")
    f("repro.core.evaluate", "evaluate_assignment", "core.evaluate")
    f("repro.core.evaluate", "total_time", "core.evaluate.total_time")
    f("repro.core.ideal", "lower_bound", "core.ideal.lower_bound")
    f("repro.core.ideal", "ideal_schedule", "core.ideal")
    f("repro.core.critical", "analyze_criticality", "core.critical")
    f("repro.core.initial", "initial_assignment", "core.initial")
    f("repro.core.refine", "refine_pairwise", "core.refine")
    f("repro.core.refine", "refine_random", "core.refine")
    for attr in ("heavy_edge_matching", "contract_graph", "match_processors"):
        f("repro.core.multilevel", attr, f"core.multilevel.{attr}", tag=_size_tag)
    f("repro.core.multilevel", "contract_system", "core.multilevel.contract_system", tag=_size_tag)
    f("repro.core.multilevel", "project_assignment", "core.multilevel.project")
    f("repro.core.multilevel", "refine_metric", "core.multilevel.refine", tag=_size_tag)
    _wrap_initial_map(inst)


def _wrap_initial_map(inst: Instrumentation) -> None:
    """Span the coarsest-level mapper ``multilevel_map`` is handed."""
    import repro.core.multilevel as ml

    tracer = inst.tracer
    original = ml.multilevel_map

    @functools.wraps(original)
    def multilevel_map(clustered, system, initial_mapper, *args, **kwargs):
        traced = tracer.wrap("core.multilevel.initial_map", initial_mapper)
        return original(clustered, system, traced, *args, **kwargs)

    inst.replace(original, multilevel_map)


def instrument_service(inst: Instrumentation) -> None:
    """Fingerprint, cache and store layers (both solve() and the fleet)."""
    import repro.service.http  # noqa: F401
    import repro.service.shard.gateway  # noqa: F401
    from repro.service.cache import OutcomeCache
    from repro.service.service import MappingService
    from repro.service.shard.gateway import GatewayHTTPServer
    from repro.service.store import ResultStore

    f = inst.function
    f("repro.service.fingerprint", "instance_fingerprint", "service.fingerprint")
    f("repro.service.fingerprint", "scenario_fingerprint", "service.fingerprint.scenario")
    m = inst.method
    m(OutcomeCache, "get", "service.cache")
    m(OutcomeCache, "put", "service.cache")
    m(ResultStore, "put", "service.store.put")
    m(MappingService, "submit_scenario", "service.submit")
    m(GatewayHTTPServer, "forward", "service.shard.gateway.forward")


def instrument_scenario_build(inst: Instrumentation) -> None:
    """The worker-side layers a scenario job runs (replayed in-process)."""
    import repro.api.sweep  # noqa: F401
    from repro.clustering.simple import RandomClusterer
    from repro.metrics import analytic, simulated

    inst.function("repro.api.sweep", "build_scenario_instance", "api.sweep.build_instance")
    _wrap_build_workload(inst)
    inst.function("repro.api.components", "build_topology", "topology.build")
    inst.method(RandomClusterer, "cluster", "clustering.random")
    for cls in vars(analytic).values():
        if isinstance(cls, type) and "compute" in cls.__dict__ and cls.__module__ == analytic.__name__:
            inst.method(cls, "compute", "metrics.analytic")
    inst.method(simulated._SimMetricBase, "compute_memo", "metrics.simulated")


def _wrap_build_workload(inst: Instrumentation) -> None:
    """``build_workload(name, ...)`` as span ``workloads.<name>``."""
    import repro.api.components as comp

    tracer = inst.tracer
    original = comp.build_workload
    per_name: dict[str, object] = {}

    @functools.wraps(original)
    def build_workload(name, *args, **kwargs):
        traced = per_name.get(name)
        if traced is None:
            traced = per_name[name] = tracer.wrap(f"workloads.{name}", original)
        return traced(name, *args, **kwargs)

    inst.replace(original, build_workload)
