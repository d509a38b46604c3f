"""Append work counters and wall times of the benchmark workloads to a
``BENCH_*.json`` log.

Each workload of ``BENCHMARK.json`` (``implant-30``, ``retry-storm``,
``latency-sweep``) is built by ``perfbench/workloads.build`` at its
default seed.  A run is the program's own calls: ``run_scenario``, or
``run_sweep`` and ``emit_csv`` for the sweep, then rendering every
report.  For each workload the script records

  * events executed and Python calls per event under cProfile, from
    one run (both are deterministic for a given tree); calls are
    summed over ``Profile.getstats()``, one entry per code object, so
    the generated ``__init__`` of each dataclass counts on its own
    (``pstats.Stats`` keys entries by file, line and name, and merges
    every such ``__init__`` into one);
  * the min and median wall time of five plain runs in this process.

A last record, ``engine-only``, times the event loop alone: the
engine on the implant profile at 30 nodes, with stub replicas that
answer each message they are served with ``ENGINE_FANOUT`` copies to
the next nodes, started by one broadcast from every node.  It counts
the same things, so that a change's saving can be split between the
run loop and the replicas.

It appends one record per workload to the JSON list in ``out``,
naming the checkout's git commit, whether its tracked files had
uncommitted changes, and a digest of ``src/pbftsim``, so that records
of the same code can be told apart from records of different code.

    python3 tools/bench_counters.py BENCH_<n>.json

It imports ``pbftsim`` from the ``src/`` directory and the workload
definitions from the ``perfbench/`` directory next to it, and edits
neither.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import srcpath  # noqa: E402,F401  (puts src/ first on the import path)
from pbftsim import metrics, netsim, scenario, sweeps  # noqa: E402
from pbftsim.wire import Message, MsgKind  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

REPS = 5

# The engine-only case: about as many events as one implant-30 run.
ENGINE_NODES = 30
ENGINE_FANOUT = 1
ENGINE_SECONDS = 120
ENGINE_SEED = 0


def run_once(wl) -> int:
    """Run the workload's study once; returns the events executed."""
    target = build(wl, wl.default_seed)
    if not wl.is_sweep:
        result = scenario.run_scenario(target)
        metrics.render_report(result.report)
        return result.engine.events_executed
    events = 0
    inner = sweeps.run_scenario

    def counted(config, **kwargs):
        nonlocal events
        result = inner(config, **kwargs)
        events += result.engine.events_executed
        return result

    sweeps.run_scenario = counted
    try:
        result = sweeps.run_sweep(target)
    finally:
        sweeps.run_scenario = inner
    sweeps.emit_csv(result)
    for run in result.runs:
        metrics.render_report(run.report)
    return events


class Echo:
    """Stub replica: answers each message with ``ENGINE_FANOUT`` copies
    of it, to the next nodes in id order."""

    def __init__(self, engine, node: int):
        self.engine = engine
        self.node = node
        self.peers = [(node + k) % engine.n
                      for k in range(1, ENGINE_FANOUT + 1)]

    def on_message(self, msg, now_us: int) -> None:
        for dst in self.peers:
            self.engine.send(self.node, dst, msg)


def run_engine_only() -> int:
    """Run the engine with ``Echo`` replicas; returns the events
    executed."""
    engine = netsim.Engine(ENGINE_NODES, netsim.PROFILES["implant"],
                           netsim.LatencyModel(), ENGINE_SEED)
    for node in range(ENGINE_NODES):
        engine.attach_replica(node, Echo(engine, node))
    for node in range(ENGINE_NODES):
        engine.broadcast(node, Message(
            kind=MsgKind.PREPARE, sender=node, recipient=None, view=0,
            seq=1, digest=bytes(32)))
    return engine.run(ENGINE_SECONDS)


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pbftsim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def measure(name: str, seed: int, run) -> dict:
    """Count and time ``run()``, which returns the events it executed."""
    profiler = cProfile.Profile()
    profiler.enable()
    events = run()
    profiler.disable()
    calls = sum(entry.callcount for entry in profiler.getstats())
    walls = []
    for _ in range(REPS):
        start = time.perf_counter()
        if run() != events:
            sys.exit(f"{name}: event count changed between runs")
        walls.append(time.perf_counter() - start)
    return {
        "workload": name,
        "seed": seed,
        "events": events,
        "calls": calls,
        "calls_per_event": round(calls / events, 4),
        "wall_s": [round(w, 4) for w in walls],
        "wall_min_s": round(min(walls), 4),
        "wall_median_s": round(statistics.median(walls), 4),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="JSON log to append to")
    args = parser.parse_args(argv)
    stamp = {
        "commit": git("rev-parse", "--short", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "src_sha256": src_digest()[:16],
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    log = json.loads(args.out.read_text()) if args.out.exists() else []
    cases = [(wl.name, wl.default_seed, lambda wl=wl: run_once(wl))
             for wl in WORKLOADS.values()]
    cases.append(("engine-only", ENGINE_SEED, run_engine_only))
    for name, seed, run in cases:
        record = dict(stamp, **measure(name, seed, run))
        print(json.dumps(record), file=sys.stderr)
        log.append(record)
        args.out.write_text(json.dumps(log, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
