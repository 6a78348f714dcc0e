"""Independent makespan oracle: the paper's recurrence, written apart
from the program.

Nothing here imports ``repro``.  The oracle reads an instance as plain
arrays (task sizes, edge list, cluster labels, machine adjacency) and an
assignment as ``assi[processor] = cluster``, and computes:

* hop distances by its own breadth-first search;
* the makespan by the paper's recurrence,
  ``start[t] = max over preds p of end[p] + w(p, t) * dist(host p, host t)``
  with ``end[t] = start[t] + size[t]`` (0 communication inside a cluster);
* the lower bound by the same recurrence with every inter-cluster
  distance set to 1 (the ideal graph of Theorem 2);
* the hop-weighted communication volume ``sum w * dist``.

:func:`check_outcome` turns a program outcome into a list of violated
properties; an empty list means the outcome agrees with the oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


def bfs_distances(adjacency: np.ndarray) -> np.ndarray:
    """All-pairs hop counts, one plain BFS per source; -1 = unreachable."""
    n = adjacency.shape[0]
    neighbours = [np.flatnonzero(adjacency[u]).tolist() for u in range(n)]
    dist = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        row = [-1] * n
        row[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in neighbours[u]:
                if row[v] < 0:
                    row[v] = row[u] + 1
                    queue.append(v)
        dist[s] = row
    return dist


def _topological_order(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    indeg = np.bincount(dst, minlength=n)
    succ: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(src.tolist(), dst.tolist()):
        succ[u].append(v)
    indeg_l = indeg.tolist()
    queue = deque(t for t in range(n) if indeg_l[t] == 0)
    order = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in succ[u]:
            indeg_l[v] -= 1
            if indeg_l[v] == 0:
                queue.append(v)
    if len(order) != n:
        raise ValueError("task graph has a cycle")
    return np.asarray(order, dtype=np.int64)


def schedule(sizes, src, dst, weight, edge_cost) -> tuple[np.ndarray, np.ndarray]:
    """Start and end times under the recurrence with per-edge factor
    ``edge_cost`` (the distance each edge's weight is multiplied by)."""
    n = len(sizes)
    order = _topological_order(n, src, dst)
    preds: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, c in zip(src.tolist(), dst.tolist(), (weight * edge_cost).tolist()):
        preds[v].append((u, c))
    size_l = sizes.tolist()
    start = [0] * n
    end = [0] * n
    for t in order.tolist():
        s = 0
        for p, c in preds[t]:
            ready = end[p] + c
            if ready > s:
                s = ready
        start[t] = s
        end[t] = s + size_l[t]
    return np.asarray(start, dtype=np.int64), np.asarray(end, dtype=np.int64)


def host_of_clusters(assi: np.ndarray) -> np.ndarray:
    """``placement[cluster] = processor`` from ``assi[processor] = cluster``."""
    placement = np.empty(len(assi), dtype=np.int64)
    placement[np.asarray(assi, dtype=np.int64)] = np.arange(len(assi))
    return placement


def ideal_schedule(sizes, src, dst, weight, labels):
    """Ideal-graph start/end times (distance 1 between clusters)."""
    cross = (labels[src] != labels[dst]).astype(np.int64)
    return schedule(sizes, src, dst, weight, cross)


@dataclass(frozen=True)
class OracleResult:
    total_time: int
    lower_bound: int
    comm_volume: int


class Oracle:
    """One instance's oracle; hop distances are computed once."""

    def __init__(self, raw) -> None:
        self.raw = raw
        self.dist = bfs_distances(raw.adjacency)
        if (self.dist < 0).any():
            raise ValueError("machine graph is disconnected")
        _, ideal_end = ideal_schedule(raw.sizes, raw.src, raw.dst, raw.weight, raw.labels)
        self.lower_bound = int(ideal_end.max())

    def evaluate(self, assi) -> OracleResult:
        raw = self.raw
        hosts = host_of_clusters(assi)[raw.labels]
        hops = self.dist[hosts[raw.src], hosts[raw.dst]]
        _, end = schedule(raw.sizes, raw.src, raw.dst, raw.weight, hops)
        volume = int((raw.weight * hops).sum())
        return OracleResult(int(end.max()), self.lower_bound, volume)


def is_bijection(assi, size: int) -> bool:
    arr = np.asarray(assi)
    return arr.shape == (size,) and np.array_equal(np.sort(arr), np.arange(size))


def check_outcome(oracle: Oracle, outcome: dict, extras_keys=()) -> tuple[list[str], OracleResult | None]:
    """Problems of one outcome dict against the oracle.

    ``outcome`` carries ``assignment`` (``assi``), ``total_time``,
    ``lower_bound``, ``reached_lower_bound`` and ``extras``.  Returns the
    list of violated properties and the oracle's figures (``None`` when
    the assignment is not a bijection, which makes the rest moot).
    """
    problems: list[str] = []
    size = oracle.raw.adjacency.shape[0]
    assi = outcome["assignment"]
    if not is_bijection(assi, size):
        return [f"assignment is not a bijection onto {size} processors"], None
    truth = oracle.evaluate(assi)
    total, bound = int(outcome["total_time"]), int(outcome["lower_bound"])
    if total != truth.total_time:
        problems.append(f"total_time {total} != oracle {truth.total_time}")
    if bound != truth.lower_bound:
        problems.append(f"lower_bound {bound} != oracle {truth.lower_bound}")
    if not bound <= total:
        problems.append(f"lower_bound {bound} > total_time {total}")
    if bool(outcome["reached_lower_bound"]) != (total == bound):
        problems.append(
            f"reached_lower_bound={outcome['reached_lower_bound']} with "
            f"total_time {total} and lower_bound {bound}"
        )
    extras = outcome.get("extras", {})
    if "comm_volume" in extras_keys and int(extras["comm_volume"]) != truth.comm_volume:
        problems.append(
            f"comm_volume {extras['comm_volume']} != oracle {truth.comm_volume}"
        )
    if "refine_probes" in extras_keys and not (
        extras["refine_swaps"] <= extras["refine_probes"]
    ):
        problems.append(
            f"refine_swaps {extras['refine_swaps']} > "
            f"refine_probes {extras['refine_probes']}"
        )
    return problems, truth
