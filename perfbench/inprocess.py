"""In-process workloads: ``paper_search`` and ``multilevel_512``.

Both drive ``repro.api.solve`` in a closed loop over a fixed list of op
slots.  Each slot is a (mapper, task count, machine) shape; the run seed
draws the instance of every slot, so every run attempts the same shapes
and only their random content changes with the seed.  A run repeats
whole rounds of the slot list until ``--seconds`` have passed; each op
of each round gets a fresh mapper seed, so the service cache behind
``solve()`` never answers a timed op.
"""

from __future__ import annotations

from dataclasses import dataclass

from .common import (
    SETUP_REPEATS,
    RunResult,
    clock,
    derive_seed,
    median,
    more_rounds,
    percentile,
    rng,
    self_peak_rss_mb,
)
from .instances import build_program_objects, make_instance
from .oracle import Oracle, check_outcome


@dataclass(frozen=True)
class Slot:
    mapper: str
    tasks: int
    topology: str


# Paper Tables 1-3 shapes (hypercube, mesh and random machines, 30-300
# tasks), chosen so every op costs roughly 0.15-0.4 s on a 2-core host:
# mixing 10 ms and 300 ms ops puts the median into the gap between them.
PAPER_SEARCH = [
    Slot("annealing", 60, "hypercube:3"),
    Slot("annealing", 80, "mesh:3x3"),
    Slot("annealing", 100, "random:8"),
    Slot("annealing", 40, "mesh:4x4"),
    Slot("annealing", 30, "random:16"),
    Slot("tabu", 120, "hypercube:3"),
    Slot("tabu", 200, "mesh:2x3"),
    Slot("tabu", 100, "random:8"),
    Slot("tabu", 300, "hypercube:2"),
    Slot("tabu", 60, "hypercube:4"),
]
PAPER_WARMUP = [Slot("annealing", 40, "hypercube:2"), Slot("tabu", 40, "hypercube:2")]

# Several hundred processors, 10k-30k tasks: long enough to time, short
# enough for several ops per run.  Op and cache-hit costs cluster by
# shape; with an odd number of shapes the median falls inside the middle
# shape's cluster, never into the gap between two (with 4 shapes the
# hit median jumped between ~105 and ~145 ms on unchanged code).
MULTILEVEL_512 = [
    Slot("multilevel", 20_000, "hypercube:9"),
    Slot("multilevel", 10_000, "torus:16x32"),
    Slot("multilevel", 30_000, "mesh:16x32"),
]
MULTILEVEL_WARMUP = [Slot("multilevel", 2_000, "hypercube:6")]

#: Distinct instance sets per run.  Round ``r`` maps set ``r % sets`` with
#: fresh mapper seeds.  Op costs and mapping quality depend on the
#: instance (paper-sized searches stop early at the lower bound; one
#: multilevel shape's makespan ratio ranged 5.8-6.8 over three seeds), so
#: more sets keep a seed's draw from moving the figures.
INSTANCE_SETS = {"paper_search": 4, "multilevel_512": 2}
#: Rounds every untraced run completes (at least one per instance set);
#: the quality metrics average their ops, so they are fixed for a seed.
QUALITY_ROUNDS = {"paper_search": 4, "multilevel_512": 2}
#: Timed cache hits per cold op (multilevel_512 has only 6-12 cold ops).
HITS_PER_OP = 3

WORKLOADS = {
    "paper_search": (PAPER_SEARCH, PAPER_WARMUP),
    "multilevel_512": (MULTILEVEL_512, MULTILEVEL_WARMUP),
}


def _scaled(slot: Slot, scale: float) -> Slot:
    """A smaller slot for the reduced-size test pass."""
    if scale >= 1.0:
        return slot
    family, _, arg = slot.topology.partition(":")
    if family == "hypercube":
        topo = f"hypercube:{max(2, int(arg) - 5)}" if int(arg) > 6 else slot.topology
    elif family in ("mesh", "torus"):
        rows, cols = (int(x) for x in arg.split("x"))
        topo = f"{family}:{max(2, rows // 4)}x{max(2, cols // 4)}" if rows * cols > 40 else slot.topology
    else:
        topo = slot.topology
    return Slot(slot.mapper, max(30, int(slot.tasks * scale)), topo)


def _build(slot: Slot, gen):
    raw = make_instance(slot.tasks, slot.topology, gen)
    return raw, build_program_objects(raw)


def run(workload: str, seed: int, seconds: float, tracer=None, scale: float = 1.0) -> RunResult:
    """One run of an in-process workload; see the module docstring.

    Untraced, whole rounds repeat until ``seconds`` have passed.  Traced,
    one untraced and one traced round per instance set run interleaved op
    by op, so the traced run's counts repeat exactly for a seed and its
    overhead is the ratio of the two halves' median latencies.
    """
    import_start = clock()
    import repro.service  # noqa: F401  (solve() delegates to it)
    from repro.api import solve
    from repro.service.store import outcome_to_dict

    import_s = clock() - import_start
    slots, warmups = WORKLOADS[workload]
    slots = [_scaled(s, scale) for s in slots]
    warmups = [_scaled(s, scale) for s in warmups]
    result = RunResult()
    extras_keys = ("comm_volume", "refine_probes") if workload == "multilevel_512" else ()

    inst = None
    if tracer is not None:
        from .trace import Instrumentation, instrument_core, instrument_service

        inst = Instrumentation(tracer)

        def install() -> None:
            instrument_core(inst)
            instrument_service(inst)

        install()
        tracer.op = "setup"

    # -- setup: instance build, fine-machine distance tables, warm-up ops,
    # repeated; the last repetition's instances are the ones timed.
    sets, quality_rounds = INSTANCE_SETS[workload], QUALITY_ROUNDS[workload]
    setup_times = []
    for rep in range(SETUP_REPEATS):
        start = clock()
        instances = [
            [_build(slot, rng(seed, 1, k, i)) for i, slot in enumerate(slots)]
            for k in range(sets)
        ]
        for i, slot in enumerate(warmups):
            _, (g, c, s) = _build(slot, rng(seed, 2, i))
            solve(g, c, s, mapper=slot.mapper, rng=derive_seed(seed, 3, rep, i))
        setup_times.append(clock() - start)
    setup_s = import_s + median(setup_times)

    records = []  # (round, slot index, outcome or exception, mapper seed, latency s)
    hit_latencies = []
    paused = 0.0  # time spent on cache hits, kept out of the cold-op throughput

    def one_op(r: int, i: int, seed_round: int | None = None) -> None:
        nonlocal paused
        slot, (_, (g, c, s)) = slots[i], instances[r % sets][i]
        op_seed = derive_seed(seed, 4, r if seed_round is None else seed_round, i)
        if tracer is not None:
            tracer.op = f"r{r}.{i}"
        t0 = clock()
        try:
            outcome = solve(g, c, s, mapper=slot.mapper, rng=op_seed)
        except Exception as exc:  # an op that raises is a failed op
            outcome = exc
        records.append((r, i, outcome, op_seed, clock() - t0))
        if isinstance(outcome, Exception):
            return
        # Cache hits: the same solve again, right after the cold one,
        # so hits sample the same host phases as the cold ops.
        pause_start = clock()
        for h in range(HITS_PER_OP):
            if tracer is not None:
                tracer.op = f"hit.{r}.{i}.{h}"
            t0 = clock()
            hit = solve(g, c, s, mapper=slot.mapper, rng=op_seed)
            hit_latencies.append(clock() - t0)
        if outcome_to_dict(hit) != outcome_to_dict(outcome):
            result.problem(f"cached reply for round {r} slot {i} differs from its cold outcome")
        paused += clock() - pause_start

    # Rounds 0..sets-1 always run untraced: in a traced run they are the
    # overhead baseline.
    if inst is not None:
        inst.remove()
    start = clock()
    if tracer is None:
        rounds = 0
        while rounds < quality_rounds or more_rounds(clock() - start, rounds, seconds):
            for i in range(len(slots)):
                one_op(rounds, i)
            rounds += 1
        elapsed = clock() - start - paused
        timed = records
    else:
        # Each op of round r runs twice, untraced and then traced as round
        # r + sets or the other way round, so the two halves of
        # trace.overhead_ratio do the same work in the same host phases.
        # A fresh default service before each makes both miss the cache.
        from repro.service import MappingService, set_default_service

        rounds = 2 * sets
        for r in range(sets):
            for i in range(len(slots)):
                for traced in (False, True) if (r + i) % 2 == 0 else (True, False):
                    previous = set_default_service(MappingService())
                    if previous is not None:
                        previous.close()
                    if traced:
                        install()
                        one_op(r + sets, i, seed_round=r)
                        inst.remove()
                    else:
                        one_op(r, i)
        tracer.op = None
        timed = [rec for rec in records if rec[0] >= sets]
        elapsed = sum(rec[4] for rec in timed)

    # -- checks against the oracle (untimed)
    oracles = [[Oracle(raw) for raw, _ in group] for group in instances]
    quality_ratio, quality_volume = [], []
    extras_totals = {"levels": 0.0, "refine_probes": 0.0, "refine_swaps": 0.0}
    evaluations = 0
    for r, i, outcome, _, _ in records:
        result.attempted += 1
        if isinstance(outcome, Exception):
            result.failed += 1
            result.problem(f"round {r} slot {i} raised {outcome!r}")
            continue
        problems, truth = check_outcome(oracles[r % sets][i], outcome_to_dict(outcome), extras_keys)
        if problems:
            result.failed += 1
            result.problem(f"round {r} slot {i}: " + "; ".join(problems))
            continue
        if r < quality_rounds:  # the same ops in every run of a seed
            quality_ratio.append(truth.total_time / truth.lower_bound)
            quality_volume.append(truth.comm_volume)
        if tracer is not None and r >= sets:
            evaluations += outcome.evaluations
            if workload == "multilevel_512":
                for key in extras_totals:
                    extras_totals[key] += outcome.extras[key]

    ms = [rec[4] * 1000.0 for rec in timed]
    result.metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(timed) / elapsed, "1/s"),
        "op_p50_ms": (median(ms), "ms"),
        "op_p90_ms": (percentile(ms, 90), "ms"),
        "hit_p50_ms": (median(hit_latencies) * 1000.0, "ms"),
        "makespan_over_bound": (sum(quality_ratio) / max(1, len(quality_ratio)), "ratio"),
        "comm_volume": (sum(quality_volume) / max(1, len(quality_volume)), "hop-weight"),
        "peak_rss_mb": (self_peak_rss_mb(), "MB"),
    }
    if tracer is not None:
        untraced = median([rec[4] * 1000.0 for rec in records if rec[0] < sets])
        result.layers["trace.overhead_ratio"] = (median(ms) / untraced, "ratio")
        result.layers["api.outcome.evaluations"] = (float(evaluations), "count")
        if workload == "multilevel_512":
            n_ops = max(1, len(timed))
            result.layers["core.multilevel.levels"] = (extras_totals["levels"] / n_ops, "count")
            for key in ("refine_probes", "refine_swaps"):
                result.layers[f"core.multilevel.{key}"] = (extras_totals[key], "count")
    result.notes.append(
        f"{workload}: {len(timed)} timed ops in {rounds} round(s) of {len(slots)} "
        f"over {elapsed:.2f} s; setup repeats {[round(t, 3) for t in setup_times]} s "
        f"+ imports {import_s:.3f} s; {len(hit_latencies)} cache hits"
    )
    return result
