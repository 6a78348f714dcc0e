"""Shared pieces of the workloads: seeds, statistics, host probe, RSS."""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

clock = time.perf_counter

#: Setup is repeated this many times per run and its median reported.
SETUP_REPEATS = 3


def derive_seed(*parts: int) -> int:
    """A 31-bit seed that depends on every part (the run seed first)."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0] & 0x7FFFFFFF)


def rng(*parts: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(p) for p in parts]))


def more_rounds(elapsed: float, rounds: int, seconds: float) -> bool:
    """Whether to start another whole round: the run ends at the round
    boundary nearest to ``seconds``."""
    return elapsed + 0.5 * elapsed / rounds < seconds


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


def median(values) -> float:
    return float(statistics.median(values))


def host_probe_ms() -> float:
    """Median of five timings of a fixed pure-Python loop, in ms.

    A reference figure printed beside every run, never a metric: it
    tells a run taken in a slow phase of the host from a regression.
    """
    times = []
    for _ in range(5):
        start = clock()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append((clock() - start) * 1000.0)
    return median(times)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set of another process from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass
class RunResult:
    """What one workload run hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    fleet_layers: dict[str, list] = field(default_factory=dict)  # fleet-side layer totals
    notes: list[str] = field(default_factory=list)

    def problem(self, message: str) -> None:
        self.problems.append(message)
