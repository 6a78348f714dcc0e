"""Tests of the benchmark's oracle alone, plus a reduced-size pass of each
workload that runs the oracle end to end.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench.instances import RawInstance, grid_adjacency
from perfbench.oracle import Oracle, bfs_distances, check_outcome, host_of_clusters, ideal_schedule, schedule

ROOT = Path(__file__).resolve().parent.parent


def ring(n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        adj[u, (u + 1) % n] = adj[(u + 1) % n, u] = 1
    return adj


def raw(sizes, edges_1based, groups_1based, adjacency) -> RawInstance:
    n = len(sizes)
    labels = np.empty(n, dtype=np.int64)
    for cluster, members in enumerate(groups_1based):
        labels[[t - 1 for t in members]] = cluster
    e = np.asarray(edges_1based, dtype=np.int64)
    return RawInstance(
        np.asarray(sizes, dtype=np.int64), e[:, 0] - 1, e[:, 1] - 1, e[:, 2].copy(),
        labels, adjacency, "test",
    )


# The paper's running example (Figs. 2, 3, 5-a, 22-b and 23), 1-based.
PAPER = raw(
    [1, 1, 2, 3, 3, 1, 3, 2, 2, 3, 1],
    [(1, 2, 1), (1, 3, 2), (1, 4, 2), (2, 5, 1), (2, 6, 2), (2, 8, 4), (3, 6, 1),
     (3, 7, 2), (3, 8, 2), (4, 5, 2), (4, 6, 3), (4, 7, 2), (5, 9, 1), (5, 10, 1),
     (6, 9, 2), (6, 11, 1), (7, 9, 2), (7, 10, 2), (8, 9, 1), (10, 11, 1)],
    [[1, 4, 7, 10, 11], [2, 5], [3, 6, 9], [8]],
    ring(4),
)


def test_bfs_on_paper_ring():
    assert bfs_distances(ring(4))[0].tolist() == [0, 1, 2, 1]


def test_bfs_on_mesh():
    dist = bfs_distances(grid_adjacency(3, 4, wrap=False))
    assert dist[0, 11] == 5 and dist[5, 6] == 1 and (dist == dist.T).all()


def test_paper_ideal_schedule_fig22b():
    start, end = ideal_schedule(PAPER.sizes, PAPER.src, PAPER.dst, PAPER.weight, PAPER.labels)
    assert start.tolist() == [0, 2, 3, 1, 6, 7, 7, 7, 12, 10, 13]
    assert end.tolist() == [1, 3, 5, 4, 9, 8, 10, 9, 14, 13, 14]
    assert Oracle(PAPER).lower_bound == 14


def test_paper_assignment_reaches_bound():
    truth = Oracle(PAPER).evaluate([0, 1, 3, 2])
    assert truth.total_time == 14 and truth.lower_bound == 14


# A 4-task chain on a 4-node ring, one task per cluster:
# sizes 1, 2, 3, 4; edge weights 5, 6, 7.
CHAIN = raw([1, 2, 3, 4], [(1, 2, 5), (2, 3, 6), (3, 4, 7)], [[1], [2], [3], [4]], ring(4))


def test_chain_on_ring_by_hand():
    oracle = Oracle(CHAIN)
    # Ideal graph: 0-1, 1+5=6..8, 8+6=14..17, 17+7=24..28.
    assert oracle.lower_bound == 28
    # Clusters 0,2,1,3 on processors 0,1,2,3: hosts 0,2,1,3, hops 2,1,2.
    assert host_of_clusters([0, 2, 1, 3]).tolist() == [0, 2, 1, 3]
    truth = oracle.evaluate([0, 2, 1, 3])
    # 0-1; 1+5*2=11..13; 13+6*1=19..22; 22+7*2=36..40.
    assert (truth.total_time, truth.comm_volume) == (40, 5 * 2 + 6 * 1 + 7 * 2)
    # Neighbours everywhere: every hop is 1, so the bound is met.
    truth = oracle.evaluate([0, 1, 2, 3])
    assert (truth.total_time, truth.comm_volume) == (28, 18)


def test_chain_assignments_that_are_not_involutions():
    # assi[processor] = cluster; a 3-cycle and a 4-cycle are not their own
    # inverse, so reading the assignment the other way round fails here.
    assert host_of_clusters([0, 2, 3, 1]).tolist() == [0, 3, 1, 2]
    assert host_of_clusters([1, 2, 3, 0]).tolist() == [3, 0, 1, 2]
    on_ring = Oracle(CHAIN)
    # Hosts 0,3,1,2 on the ring: hops 1,2,1; 0-1, 6..8, 20..23, 30..34.
    truth = on_ring.evaluate([0, 2, 3, 1])
    assert (truth.total_time, truth.comm_volume) == (34, 5 * 1 + 6 * 2 + 7 * 1)
    on_path = Oracle(replace(CHAIN, adjacency=grid_adjacency(1, 4, wrap=False)))
    assert on_path.lower_bound == 28
    # Hosts 0,3,1,2 on the path 0-1-2-3: hops 3,2,1; 0-1, 16..18, 30..33, 40..44.
    truth = on_path.evaluate([0, 2, 3, 1])
    assert (truth.total_time, truth.comm_volume) == (44, 5 * 3 + 6 * 2 + 7 * 1)
    # Hosts 3,0,1,2 on the path: hops 3,1,1; 0-1, 16..18, 24..27, 34..38.
    truth = on_path.evaluate([1, 2, 3, 0])
    assert (truth.total_time, truth.comm_volume) == (38, 5 * 3 + 6 * 1 + 7 * 1)


def test_schedule_zero_cost_inside_cluster():
    start, end = schedule(CHAIN.sizes, CHAIN.src, CHAIN.dst, CHAIN.weight, np.zeros(3, dtype=np.int64))
    assert start.tolist() == [0, 1, 3, 6] and end.tolist() == [1, 3, 6, 10]


def good_outcome(**changes):
    outcome = {
        "assignment": [0, 2, 1, 3], "total_time": 40, "lower_bound": 28,
        "reached_lower_bound": False, "extras": {"comm_volume": 30.0, "refine_probes": 5.0, "refine_swaps": 2.0},
    }
    outcome.update(changes)
    return outcome


def test_check_outcome_accepts_truth():
    problems, truth = check_outcome(Oracle(CHAIN), good_outcome(), ("comm_volume", "refine_probes"))
    assert problems == [] and truth.total_time == 40


@pytest.mark.parametrize(
    "changes, fragment",
    [
        ({"assignment": [0, 0, 1, 3]}, "bijection"),
        ({"total_time": 39}, "total_time 39"),
        ({"lower_bound": 27}, "lower_bound 27"),
        ({"reached_lower_bound": True}, "reached_lower_bound"),
        ({"extras": {"comm_volume": 31.0, "refine_probes": 5.0, "refine_swaps": 2.0}}, "comm_volume"),
        ({"extras": {"comm_volume": 30.0, "refine_probes": 1.0, "refine_swaps": 2.0}}, "refine_swaps"),
    ],
)
def test_check_outcome_flags(changes, fragment):
    problems, _ = check_outcome(Oracle(CHAIN), good_outcome(**changes), ("comm_volume", "refine_probes"))
    assert any(fragment in p for p in problems), problems


# -- reduced-size passes: every op checked by the oracle, none may fail

@pytest.fixture(scope="module")
def program_on_path():
    sys.path[:0] = [str(ROOT / "src")]
    yield
    sys.path.remove(str(ROOT / "src"))


def assert_clean(result, names):
    assert result.attempted > 0
    assert result.failed == 0 and result.problems == [], result.problems
    assert set(names) <= set(result.metrics)
    assert all(v > 0 for v, _ in result.metrics.values()), result.metrics


END_TO_END = ["setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "hit_p50_ms",
              "makespan_over_bound", "comm_volume", "peak_rss_mb"]


@pytest.mark.parametrize("workload", ["paper_search", "multilevel_512"])
def test_inprocess_reduced(program_on_path, workload):
    from perfbench import inprocess

    assert_clean(inprocess.run(workload, seed=3, seconds=0.1, scale=0.2), END_TO_END)


def test_service_reduced(program_on_path):
    from perfbench import serving

    assert_clean(serving.run(seed=3, seconds=0.1, root=ROOT, scale=0.2), END_TO_END)


def test_traced_counts_repeat(program_on_path):
    from perfbench import inprocess
    from perfbench.layers import PER_LAYER, layer_metrics
    from perfbench.trace import Tracer

    from repro.service import shutdown_default_service

    counts = []
    for _ in range(2):
        shutdown_default_service()  # each benchmark run is a fresh process
        tracer = Tracer()
        result = inprocess.run("paper_search", seed=3, seconds=0.1, tracer=tracer, scale=0.2)
        metrics = layer_metrics(result, tracer)
        assert set(metrics) == {name for name, _ in PER_LAYER}
        assert metrics["core.incremental.probe_swap.calls"]["value"] > 0
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
