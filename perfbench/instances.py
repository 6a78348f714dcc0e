"""Seeded instance generation owned by the benchmark.

Every in-process instance is drawn here from the benchmark's own seed,
with numpy only, and handed to the program as built ``TaskGraph`` /
``Clustering`` / ``SystemGraph`` objects.  A change to the program's
workload, clustering or topology generators therefore cannot change
what the in-process workloads measure.

Ranges follow the paper's Sec. 5: task sizes and edge weights are
uniform integers in 1..10, clusterings are uniformly random with every
cluster non-empty, and ``na == ns``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIZE_RANGE = (1, 10)
WEIGHT_RANGE = (1, 10)


@dataclass(frozen=True)
class RawInstance:
    """Plain arrays of one instance: what the oracle reads."""

    sizes: np.ndarray  # (n,) int64
    src: np.ndarray  # (m,) int64
    dst: np.ndarray  # (m,) int64
    weight: np.ndarray  # (m,) int64
    labels: np.ndarray  # (n,) int64, cluster of each task
    adjacency: np.ndarray  # (ns, ns) 0/1 int64, symmetric
    topology: str


def layered_dag(n: int, gen: np.random.Generator, extra_per_task: float = 1.5):
    """Layered random DAG: ``round(sqrt(n))`` layers of consecutive ids.

    Every task outside the first layer gets one predecessor drawn from
    the earlier layers; about ``extra_per_task * n`` further forward
    edges join a random task to a random task of a later layer.
    Returns ``(sizes, src, dst, weight)`` with unique edges.
    """
    layers = max(2, int(round(np.sqrt(n))))
    cuts = np.sort(gen.choice(np.arange(1, n), size=layers - 1, replace=False))
    bounds = np.concatenate(([0], cuts, [n])).astype(np.int64)
    layer_of = np.repeat(np.arange(layers), np.diff(bounds))
    sizes = gen.integers(SIZE_RANGE[0], SIZE_RANGE[1] + 1, size=n)

    tail = np.arange(bounds[1], n)
    span_src = (gen.random(tail.size) * bounds[layer_of[tail]]).astype(np.int64)
    later_start = bounds[layer_of + 1]  # first id of the next layer
    can_lead = np.flatnonzero(later_start < n)
    k = int(round(extra_per_task * n))
    ex_src = can_lead[gen.integers(0, can_lead.size, size=k)]
    lo = later_start[ex_src]
    ex_dst = lo + (gen.random(k) * (n - lo)).astype(np.int64)

    keys = np.concatenate((span_src * n + tail, ex_src * n + ex_dst))
    keys = np.unique(keys)  # drops duplicate extras; keeps every spanning edge
    src, dst = keys // n, keys % n
    weight = gen.integers(WEIGHT_RANGE[0], WEIGHT_RANGE[1] + 1, size=keys.size)
    return sizes.astype(np.int64), src, dst, weight.astype(np.int64)


def random_labels(n: int, na: int, gen: np.random.Generator) -> np.ndarray:
    """Uniform cluster per task; an empty cluster takes a task from the
    largest cluster, so all ``na`` clusters are used."""
    labels = gen.integers(0, na, size=n).astype(np.int64)
    counts = np.bincount(labels, minlength=na)
    for empty in np.flatnonzero(counts == 0).tolist():
        donor = int(np.argmax(counts))
        task = int(gen.choice(np.flatnonzero(labels == donor)))
        labels[task] = empty
        counts[donor] -= 1
        counts[empty] += 1
    return labels


def hypercube_adjacency(dim: int) -> np.ndarray:
    n = 1 << dim
    adj = np.zeros((n, n), dtype=np.int64)
    nodes = np.arange(n)
    for bit in range(dim):
        adj[nodes, nodes ^ (1 << bit)] = 1
    return adj


def grid_adjacency(rows: int, cols: int, wrap: bool) -> np.ndarray:
    n = rows * cols
    adj = np.zeros((n, n), dtype=np.int64)
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            for dr, dc in ((0, 1), (1, 0)):
                rr, cc = r + dr, c + dc
                if wrap:
                    rr, cc = rr % rows, cc % cols
                elif rr >= rows or cc >= cols:
                    continue
                v = rr * cols + cc
                if u != v:
                    adj[u, v] = adj[v, u] = 1
    return adj


def random_adjacency(n: int, gen: np.random.Generator, degree: float = 3.0) -> np.ndarray:
    """Connected random machine: a random spanning tree plus random links
    up to a mean degree of about ``degree``."""
    adj = np.zeros((n, n), dtype=np.int64)
    order = gen.permutation(n)
    for i in range(1, n):
        u, v = int(order[i]), int(order[gen.integers(0, i)])
        adj[u, v] = adj[v, u] = 1
    extra = max(0, int(round(degree * n / 2)) - (n - 1))
    for _ in range(extra):
        u, v = (int(x) for x in gen.integers(0, n, size=2))
        if u != v:
            adj[u, v] = adj[v, u] = 1
    return adj


def topology_adjacency(spec: str, gen: np.random.Generator) -> np.ndarray:
    """``hypercube:D``, ``mesh:RxC``, ``torus:RxC`` or ``random:N``."""
    family, _, arg = spec.partition(":")
    if family == "hypercube":
        return hypercube_adjacency(int(arg))
    if family in ("mesh", "torus"):
        rows, cols = (int(x) for x in arg.split("x"))
        return grid_adjacency(rows, cols, wrap=family == "torus")
    if family == "random":
        return random_adjacency(int(arg), gen)
    raise ValueError(f"unknown topology spec {spec!r}")


def make_instance(n_tasks: int, topology: str, gen: np.random.Generator) -> RawInstance:
    adjacency = topology_adjacency(topology, gen)
    sizes, src, dst, weight = layered_dag(n_tasks, gen)
    labels = random_labels(n_tasks, adjacency.shape[0], gen)
    return RawInstance(sizes, src, dst, weight, labels, adjacency, topology)


def build_program_objects(raw: RawInstance):
    """The program's ``(TaskGraph, Clustering, SystemGraph)`` for ``raw``."""
    from repro.core.clustered import Clustering
    from repro.core.taskgraph import TaskGraph
    from repro.topology.base import SystemGraph

    graph = TaskGraph.from_edge_arrays(raw.sizes, raw.src, raw.dst, raw.weight)
    clustering = Clustering(raw.labels, num_clusters=raw.adjacency.shape[0])
    system = SystemGraph(raw.adjacency, name=raw.topology)
    return graph, clustering, system


def raw_from_program(graph, clustering, system, topology: str) -> RawInstance:
    """Plain arrays of an instance the program built (service replays)."""
    src, dst, weight = graph.edge_arrays()
    return RawInstance(
        np.asarray(graph.task_sizes, dtype=np.int64).copy(),
        np.asarray(src, dtype=np.int64).copy(),
        np.asarray(dst, dtype=np.int64).copy(),
        np.asarray(weight, dtype=np.int64).copy(),
        np.asarray(clustering.labels, dtype=np.int64).copy(),
        (np.asarray(system.sys_edge) != 0).astype(np.int64),
        topology,
    )
