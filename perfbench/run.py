"""Benchmark entry point.

    python3 perfbench/run.py --workload paper_search --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of the repository: the program is
imported from ``src/`` of that checkout.  Prints one human-readable line
per note (host probe, op counts), then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits 2 without a result when the program cannot be imported or a
workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

START = time.perf_counter()
ROOT = Path.cwd()
WORKLOADS = ("paper_search", "multilevel_512", "service_gateway")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(args, root: Path):
    """Run one workload; returns ``(RunResult, result line dict)``."""
    from perfbench import inprocess, serving
    from perfbench.common import host_probe_ms
    from perfbench.layers import layer_metrics
    from perfbench.trace import Tracer

    tracer = Tracer() if args.trace else None
    probe_before = host_probe_ms()
    if args.workload == "service_gateway":
        result = serving.run(args.seed, args.seconds, root, tracer)
    else:
        result = inprocess.run(args.workload, args.seed, args.seconds, tracer)
    probe_after = host_probe_ms()
    result.notes.append(
        f"host probe: {probe_before:.1f} ms before, {probe_after:.1f} ms after "
        "(fixed pure-Python loop; a reference figure, not a metric)"
    )
    if tracer is not None:
        out = root / ".perfbench_out"
        out.mkdir(exist_ok=True)
        trace_path = out / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        result.notes.append(f"spans written to {trace_path.relative_to(root)}")
        metrics = layer_metrics(result, tracer)
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()}
    line = {
        "correct": result.failed == 0 and not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }
    return result, line


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program under {ROOT / 'src' / 'repro'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    result, line = run_workload(args, ROOT)
    for note in result.notes:
        print(note)
    for problem in result.problems[:20]:
        print(f"PROBLEM: {problem}")
    if not args.trace:
        for name, (value, unit) in result.metrics.items():
            print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"wall {time.perf_counter() - START:.1f} s")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
