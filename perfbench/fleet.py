"""The serving fleet of ``service_gateway``, run as its own process.

One shard (``make_server`` over a ``MappingService`` with a durable
JSONL store at its default fsync-always policy) behind ``make_gateway``.
The shard's worker pool is started before any server thread exists and
before tracing is installed, so workers fork from a thread-free process
and run untraced code.

Protocol on stdio: the fleet prints one JSON line ``{"gateway": port}``
when it serves.  ``trace 1`` / ``trace 0`` lines install / remove the
service-side spans once no job is active, so no call straddles the
switch, and are answered ``{"trace": 0|1}``.  On a ``stop`` line (or end
of input) it prints one JSON line with the peak RSS of itself and its
workers and the layer totals of its traced spans, then shuts down and
exits.

Run: ``python3 -m perfbench.fleet --store DIR`` with ``src`` and the
checkout root on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import threading
import time

from .common import proc_peak_rss_mb

WORKERS = 2


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        with open(path, encoding="ascii") as fh:
            kids.extend(int(x) for x in fh.read().split())
    return kids


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.fleet")
    parser.add_argument("--store", required=True, help="directory for the result store")
    args = parser.parse_args(argv)

    from repro.service import MappingService, make_server
    from repro.service.shard import make_gateway

    from .trace import Instrumentation, Tracer, instrument_service

    service = MappingService(
        max_workers=WORKERS, store_path=os.path.join(args.store, "store.jsonl")
    )
    service.executor().submit(int).result()  # fork every worker now
    tracer = Tracer()
    inst = Instrumentation(tracer)
    shard = make_server(service, port=0)
    gateway = make_gateway([f"127.0.0.1:{shard.server_address[1]}"], port=0)
    threads = [
        threading.Thread(target=server.serve_forever, daemon=True)
        for server in (shard, gateway)
    ]
    for thread in threads:
        thread.start()
    print(json.dumps({"gateway": gateway.server_address[1]}), flush=True)
    for line in sys.stdin:
        command = line.strip()
        if command == "stop":
            break
        if command in ("trace 0", "trace 1"):
            while service.active_jobs():
                time.sleep(0.001)
            inst.remove()
            if command == "trace 1":
                instrument_service(inst)
            print(json.dumps({"trace": int(command[-1])}), flush=True)
    pids = [os.getpid(), *_children(os.getpid())]
    report = {
        "rss_mb": max(proc_peak_rss_mb(pid) for pid in pids),
        "processes": len(pids),
        "layers": tracer.layer_totals(),
    }
    gateway.shutdown()
    shard.shutdown()
    for thread in threads:
        thread.join()
    gateway.server_close()
    shard.server_close()
    service.close()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
