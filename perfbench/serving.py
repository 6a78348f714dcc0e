"""The ``service_gateway`` workload: HTTP jobs through the gateway.

A fleet process (:mod:`perfbench.fleet`) serves one shard behind the
gateway.  This process is the client: one closed loop, so one job is in
flight at a time and one of the 2 cores stays free for the client, the
gateway and the shard while a pool worker runs the job.  It takes ops
from a fixed per-round list.  A cold op POSTs a paper-sized
``layered_random`` scenario for the ``critical`` mapper and polls
``GET /jobs/<id>`` until it is done; a hit op re-POSTs a scenario of the
previous round, which the cache answers at once.

Every cold outcome is checked against the oracle on the instance the
scenario builds, and every hit's outcome against its cold outcome,
after the timed loop.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from .common import (
    SETUP_REPEATS,
    RunResult,
    clock,
    derive_seed,
    median,
    more_rounds,
    percentile,
    self_peak_rss_mb,
)
from .instances import raw_from_program
from .oracle import Oracle, check_outcome

POLL_S = 0.004
COLD_PER_ROUND = 12
HITS_PER_ROUND = 4
TRACED_ROUNDS = 4
#: Rounds every run completes; their cold jobs give the quality metrics.
QUALITY_ROUNDS = 4
WARMUP_JOBS = HITS_PER_ROUND

# Paper-sized cold jobs; a third also request metrics, which adds the
# analytic and simulated metric layers to the pool run.
SHAPES = [
    (200, "hypercube:3", ()),
    (150, "mesh2d:3x4", ("comm_volume", "sim_makespan")),
    (180, "random:12", ()),
    (250, "torus2d:4x4", ("comm_volume",)),
    (120, "hypercube:4", ()),
    (200, "mesh2d:4x4", ("sim_makespan",)),
]


def _scenario_body(n: int, topology: str, metrics, seed: int) -> dict:
    return {
        "workload": "layered_random",
        "workload_params": {"num_tasks": n},
        "topology": topology,
        "clustering": "random",
        "mapper": "critical",
        "seed": seed,
        "metrics": list(metrics),
    }


def _cold_bodies(seed: int, r: int, count: int, scale: float) -> list[dict]:
    bodies = []
    for i in range(count):
        n, topology, metrics = SHAPES[i % len(SHAPES)]
        bodies.append(_scenario_body(max(30, int(n * scale)), topology, metrics, derive_seed(seed, 5, r, i)))
    return bodies


class _Client:
    """Plain HTTP/1.0 JSON calls to the gateway (one connection each)."""

    def __init__(self, port: int) -> None:
        self.port = port

    def call(self, method: str, path: str, body: dict | None = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            data = None if body is None else json.dumps(body).encode()
            headers = {} if body is None else {"Content-Type": "application/json"}
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()


class _Fleet:
    """The fleet subprocess: start, wait for its port, stop and report."""

    def __init__(self, root: Path, store: Path) -> None:
        store.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.fleet", "--store", str(store)],
            cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise RuntimeError("fleet process exited before serving")
        self.port = json.loads(line)["gateway"]

    def command(self, line: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def stop(self) -> dict:
        report = self.command("stop")
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()
        return report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=60)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


class _Op(NamedTuple):
    """One op of a round as the client saw it; ``busy`` also covers
    fetching a hit's outcome."""

    round: int
    kind: str
    body: dict
    latency: float
    busy: float
    polls: int
    outcome: dict | None
    error: str | None


def _run_round(client: _Client, r: int, ops: list[tuple[str, dict]]) -> list[_Op]:
    """Run round ``r``'s ops one after another."""
    done = []
    for kind, body in ops:
        t0 = clock()
        polls, outcome, error = 0, None, None
        try:
            status, reply = client.call("POST", "/jobs", body)
            if kind == "hit":
                latency = clock() - t0
                if status != 200 or not reply.get("cached"):
                    error = f"repeat POST answered {status} cached={reply.get('cached')}"
                else:
                    _, job = client.call("GET", f"/jobs/{reply['id']}")
                    outcome = job.get("outcome")
            elif status not in (200, 202):
                latency = clock() - t0
                error = f"cold POST answered {status}: {reply}"
            else:
                while True:
                    _, job = client.call("GET", f"/jobs/{reply['id']}")
                    polls += 1
                    if job["status"] in ("done", "failed"):
                        break
                    time.sleep(POLL_S)
                latency = clock() - t0
                if job["status"] == "failed":
                    error = f"job failed: {job.get('error')}"
                else:
                    outcome = job["outcome"]
                if reply.get("cached"):
                    error = "cold POST was answered from the cache"
        except OSError as exc:
            latency, error = clock() - t0, f"transport error: {exc!r}"
        done.append(_Op(r, kind, body, latency, clock() - t0, polls, outcome, error))
    return done


def _round_ops(seed: int, r: int, previous: list[dict], scale: float) -> list[tuple[str, dict]]:
    """Cold ops of round ``r`` with a hit op after every third cold one;
    the hits repeat the first scenarios of ``previous``."""
    ops: list[tuple[str, dict]] = []
    hits = iter(previous[:HITS_PER_ROUND])
    for i, body in enumerate(_cold_bodies(seed, r, COLD_PER_ROUND, scale)):
        ops.append(("cold", body))
        if i % 3 == 2:
            ops.append(("hit", next(hits)))
    return ops


def _strip_wall(outcome: dict) -> dict:
    return {k: v for k, v in outcome.items() if k != "wall_time"}


def run(seed: int, seconds: float, root: Path, tracer=None, scale: float = 1.0) -> RunResult:
    """One run; see the module docstring.

    Untraced, whole rounds repeat until ``seconds`` have passed.  Traced,
    round 0 is followed by ``2 * TRACED_ROUNDS`` rounds whose odd ones the
    fleet traces, so the traced run's counts repeat exactly for a seed and
    ``trace.overhead_ratio`` compares interleaved traced and untraced
    rounds, which sample the same host phases.
    """
    import_start = clock()
    from repro.api.scenario import Scenario
    from repro.api.sweep import build_scenario_instance, run_scenario_once
    from repro.service.store import outcome_to_dict

    import_s = clock() - import_start
    result = RunResult()
    work = root / ".perfbench_out" / f"service-{os.getpid()}"
    warm_bodies = _cold_bodies(seed, 10_000, WARMUP_JOBS, scale)

    # -- setup: fleet start (imports, store, pool fork), warm-up jobs;
    # repeated with a fresh store each time, the last fleet is timed.
    setup_times, fleet = [], None
    try:
        for rep in range(SETUP_REPEATS):
            if fleet is not None:
                fleet.stop()
            start = clock()
            fleet = _Fleet(root, work / f"store{rep}")
            warm = _run_round(_Client(fleet.port), -1, [("cold", b) for b in warm_bodies])
            setup_times.append(clock() - start)
            for op in warm:
                if op.error is not None:
                    result.problem(f"warm-up job failed: {op.error}")
        # Round 0's hits repeat the timed fleet's warm-up jobs.
        cold_by_key = {json.dumps(op.body, sort_keys=True): op.outcome for op in warm}
        client = _Client(fleet.port)
        records: list[_Op] = []

        def one_round(r: int, previous: list[dict], traced: bool = False) -> list[dict]:
            ops = _round_ops(seed, r, previous, scale)
            if traced:
                fleet.command("trace 1")
            records.extend(_run_round(client, r, ops))
            if traced:
                fleet.command("trace 0")
            return [body for kind, body in ops if kind == "cold"]

        start = clock()
        previous = one_round(0, warm_bodies)
        r = 1
        if tracer is None:
            while r < QUALITY_ROUNDS or more_rounds(clock() - start, r, seconds):
                previous = one_round(r, previous)
                r += 1
            timed_rounds = set(range(r))
        else:
            while r <= 2 * TRACED_ROUNDS:
                previous = one_round(r, previous, traced=r % 2 == 1)
                r += 1
            timed_rounds = set(range(1, r, 2))
        elapsed = clock() - start
        stats = client.call("GET", "/stats")[1] if tracer is not None else None
        report = fleet.stop()
        fleet = None
    finally:
        if fleet is not None:
            fleet.kill()
        shutil.rmtree(work, ignore_errors=True)

    # -- checks (untimed): cold outcomes against the oracle, hits against
    # the cold outcome of the same scenario.
    quality_ratio, quality_volume = [], []
    replay = None
    if tracer is not None:
        from .trace import Instrumentation, instrument_core, instrument_scenario_build

        replay = Instrumentation(tracer)
        instrument_core(replay)
        instrument_scenario_build(replay)
    for n, op in enumerate(records):
        if op.kind != "cold" or op.error is not None:
            continue
        scenario = Scenario.from_dict(op.body)
        cold_by_key[json.dumps(op.body, sort_keys=True)] = op.outcome
        instance, _ = build_scenario_instance(scenario)
        raw = raw_from_program(instance.clustered.graph, instance.clustered.clustering, instance.system, op.body["topology"])
        problems, truth = check_outcome(Oracle(raw), op.outcome)
        wants_volume = "comm_volume" in op.body["metrics"]
        if truth is not None and wants_volume and int(op.outcome["metrics"]["comm_volume"]) != truth.comm_volume:
            problems.append(f"comm_volume metric {op.outcome['metrics']['comm_volume']} != oracle {truth.comm_volume}")
        if replay is not None and op.round in timed_rounds:
            tracer.op = f"replay.{n}"
            again = outcome_to_dict(run_scenario_once(scenario))
            if _strip_wall(again) != _strip_wall(op.outcome):
                problems.append("in-process replay differs from the service outcome")
        if problems:
            records[n] = op._replace(error="; ".join(problems))
        elif op.round < QUALITY_ROUNDS:
            quality_ratio.append(truth.total_time / truth.lower_bound)
            quality_volume.append(truth.comm_volume)
    if replay is not None:
        replay.remove()
        tracer.op = None
    for n, op in enumerate(records):
        if op.kind == "hit" and op.error is None:
            if cold_by_key.get(json.dumps(op.body, sort_keys=True)) != op.outcome:
                records[n] = op._replace(error="cached reply differs from its cold outcome")

    for op in records:
        result.attempted += 1
        if op.error is not None:
            result.failed += 1
            result.problem(f"round {op.round} {op.kind} op: {op.error}")
    timed = [op for op in records if op.round in timed_rounds]
    cold = [op for op in timed if op.kind == "cold"]
    cold_ms = [op.latency * 1000.0 for op in cold]
    hit_ms = [op.latency * 1000.0 for op in timed if op.kind == "hit"]
    # Throughput of cold ops alone, as in-process: hits are much cheaper,
    # and their time is taken out of the wall time.
    if tracer is None:
        cold_s = elapsed - sum(op.busy for op in timed if op.kind == "hit")
    else:
        cold_s = sum(op.busy for op in cold)
    result.metrics = {
        "setup_s": (import_s + median(setup_times), "s"),
        "ops_per_s": (len(cold) / cold_s, "1/s"),
        "op_p50_ms": (median(cold_ms), "ms"),
        "op_p90_ms": (percentile(cold_ms, 90), "ms"),
        "hit_p50_ms": (median(hit_ms), "ms"),
        "makespan_over_bound": (sum(quality_ratio) / max(1, len(quality_ratio)), "ratio"),
        "comm_volume": (sum(quality_volume) / max(1, len(quality_volume)), "hop-weight"),
        "peak_rss_mb": (max(report["rss_mb"], self_peak_rss_mb()), "MB"),
    }
    if tracer is not None:
        traced_cold = [op.outcome for op in cold if op.error is None]
        result.layers["api.outcome.evaluations"] = (float(sum(o["evaluations"] for o in traced_cold)), "count")
        result.layers["client.polls_per_job"] = (sum(op.polls for op in cold) / max(1, len(cold)), "polls/job")
        untraced = [op.latency * 1000.0 for op in records
                    if op.kind == "cold" and op.round > 0 and op.round not in timed_rounds]
        result.layers["trace.overhead_ratio"] = (median(cold_ms) / median(untraced), "ratio")
        shard_stats = [s["stats"] for s in stats["shards"]]
        result.layers["service.cache.hits"] = (sum(s["cache"]["hits"] for s in shard_stats), "count")
        result.layers["service.executed"] = (sum(s["executed"] for s in shard_stats), "count")
        result.fleet_layers = report["layers"]
    result.notes.append(
        f"service_gateway: {len(timed)} timed ops ({len(cold_ms)} cold, {len(hit_ms)} hits) "
        f"in {len(timed_rounds)} round(s) over {elapsed:.2f} s; setup repeats "
        f"{[round(t, 3) for t in setup_times]} s + imports {import_s:.3f} s; "
        f"fleet of {report['processes']} processes"
    )
    return result
