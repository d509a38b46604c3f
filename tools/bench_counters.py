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
  * the min and median wall time of five plain runs in this process;
  * in a ``setup`` record, the min and median time from launching a
    fresh process to the workload's first simulated event over
    ``SETUP_PROBES`` processes, and whether numpy was imported by then.
    Each process is the benchmark's own set-up probe (``perfbench/child.py
    setup``), which prints the host clock at the first event;
  * in a ``round`` record, over ``ROUND_PROBES`` fresh processes that
    each run one benchmark round (``perfbench/workloads.run_round``, as
    ``perfbench/child.py round`` does): the process's own peak resident
    memory, read as ``VmHWM`` from ``/proc/self/status``, and, while
    the program's own calls run, the cyclic garbage collector's passes
    and the objects they found per generation and its seconds.
    ``VmHWM`` starts afresh in a new process, while ``ru_maxrss``, which
    the benchmark reads, keeps the launcher's peak across ``exec``;
  * in a ``memory`` record, for each single-scenario workload, the
    bytes that the finished run holds while its ``RunResult`` is alive,
    counted by ``tracemalloc`` in a fresh process that traces only the
    ``run_scenario`` call (``numpy.random`` is imported before it),
    with the ten ``src/pbftsim`` lines that allocated the most of them.
    The count is deterministic, unlike the resident peak, so the
    ``MEMORY_PROBES`` processes should agree; the record gives their
    spread, which is 0 when they do.

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
SETUP_PROBES = 11

# Runs ``child.py setup`` as its ``__main__``, then reports whether
# numpy is loaded: the probe stops at the first event, so nothing runs
# in between.
SETUP_CHILD = """
import runpy, sys
sys.path.insert(0, {perfbench!r})
sys.argv = [{child!r}, "setup", {name!r}, {seed!r}]
runpy.run_path(sys.argv[0], run_name="__main__")
print("numpy" in sys.modules)
"""

ROUND_PROBES = 3
MEMORY_PROBES = 2
MEMORY_TOP = 10

# Runs one round of the workload and prints the process's peak resident
# memory, with the cyclic collector's passes and the objects they found
# by generation, and its seconds, counted while the program's own calls
# run (the round's ``Stopwatch`` is running).
ROUND_CHILD = """
import gc, json, sys, time
sys.path.insert(0, {perfbench!r})
import srcpath
from workloads import WORKLOADS, Stopwatch, run_round

class Watch(Stopwatch):
    running = False
    def start(self):
        self.running = True
        super().start()
    def stop(self):
        super().stop()
        self.running = False

watch = Watch()
passes, found, spent = [0, 0, 0], [0, 0, 0], [0.0]
def count(phase, info):
    if not watch.running:
        return
    if phase == "start":
        spent[0] -= time.perf_counter()
        return
    spent[0] += time.perf_counter()
    passes[info["generation"]] += 1
    found[info["generation"]] += info["collected"] + info["uncollectable"]
gc.callbacks.append(count)
run_round(WORKLOADS[{name!r}], {seed!r}, watch)
with open("/proc/self/status") as status:
    peak_kib = next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:"))
print(json.dumps([peak_kib, spent[0], passes, found]))
"""

# Runs one scenario of the workload under ``tracemalloc`` and prints
# the bytes the finished run holds, once the collector has freed any
# cyclic garbage, and the lines of ``src/pbftsim`` holding the most.
# ``numpy.random``, which a run with a delay law imports on its first
# draw, is imported first, so that its modules (about 6 MiB) are not
# counted.
MEMORY_CHILD = """
import gc, json, sys, tracemalloc
from pathlib import Path
sys.path.insert(0, {perfbench!r})
import numpy.random
import srcpath
from pbftsim import scenario
from workloads import WORKLOADS, build

config = build(WORKLOADS[{name!r}], {seed!r})
tracemalloc.start()
result = scenario.run_scenario(config)
gc.collect()
held = tracemalloc.get_traced_memory()[0]
snapshot = tracemalloc.take_snapshot()
tracemalloc.stop()
ours = snapshot.filter_traces(
    [tracemalloc.Filter(True, str(srcpath.SRC / "pbftsim" / "*"))])
top = []
for stat in ours.statistics("lineno")[:{top}]:
    frame = stat.traceback[0]
    path = Path(frame.filename).relative_to(srcpath.SRC.parent)
    top.append([f"{{path.as_posix()}}:{{frame.lineno}}", stat.size])
print(json.dumps([held, top]))
"""

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


def probe_setup(wl) -> tuple[float, bool]:
    """Seconds from launching a fresh process to its first event, and
    whether numpy was loaded by then."""
    code = SETUP_CHILD.format(
        perfbench=str(ROOT / "perfbench"),
        child=str(ROOT / "perfbench" / "child.py"), name=wl.name,
        seed=str(wl.default_seed))
    start = time.monotonic()
    first_event, numpy_loaded = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, timeout=170).stdout.split()
    return float(first_event) - start, numpy_loaded == "True"


def measure_setup(wl) -> dict:
    probes = [probe_setup(wl) for _ in range(SETUP_PROBES)]
    times = [t for t, _ in probes]
    loaded = {numpy for _, numpy in probes}
    if len(loaded) != 1:
        sys.exit(f"{wl.name}: numpy loaded in some set-up probes only")
    return {
        "record": "setup",
        "workload": wl.name,
        "seed": wl.default_seed,
        "setup_s": [round(t, 4) for t in times],
        "setup_min_s": round(min(times), 4),
        "setup_median_s": round(statistics.median(times), 4),
        "numpy_at_first_event": loaded.pop(),
    }


def probe_round(wl) -> tuple[int, float, list, list]:
    """Peak resident KiB of a fresh process running one round, and the
    collector's seconds, passes and objects found per generation during
    the program's calls."""
    code = ROUND_CHILD.format(perfbench=str(ROOT / "perfbench"),
                              name=wl.name, seed=wl.default_seed)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=600).stdout
    return tuple(json.loads(out))


def measure_round(wl) -> dict:
    probes = [probe_round(wl) for _ in range(ROUND_PROBES)]
    peaks = [peak / 1024 for peak, _, _, _ in probes]
    spent = [gc_s for _, gc_s, _, _ in probes]
    passes, found = probes[0][2:]
    if any(probe[2:] != (passes, found) for probe in probes):
        sys.exit(f"{wl.name}: collector counts differ between rounds")
    return {
        "record": "round",
        "workload": wl.name,
        "seed": wl.default_seed,
        "peak_mib": [round(p, 1) for p in peaks],
        "peak_min_mib": round(min(peaks), 1),
        "peak_median_mib": round(statistics.median(peaks), 1),
        "gc_passes": passes,
        "gc_found": found,
        "gc_s": [round(t, 4) for t in spent],
    }


def probe_memory(wl) -> tuple[int, list]:
    """Bytes a fresh process's finished run of the workload holds, and
    the ``src/pbftsim`` lines holding the most, as [line, bytes]."""
    code = MEMORY_CHILD.format(perfbench=str(ROOT / "perfbench"),
                               name=wl.name, seed=wl.default_seed,
                               top=MEMORY_TOP)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=600).stdout
    return tuple(json.loads(out))


def measure_memory(wl) -> dict:
    probes = [probe_memory(wl) for _ in range(MEMORY_PROBES)]
    held = [h for h, _ in probes]
    return {
        "record": "memory",
        "workload": wl.name,
        "seed": wl.default_seed,
        "held_bytes": held,
        "held_spread_bytes": max(held) - min(held),
        "held_mib": round(min(held) / 2**20, 2),
        "top_lines": probes[0][1],
    }


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
    for wl in WORKLOADS.values():
        probes = [measure_setup, measure_round]
        if not wl.is_sweep:
            probes.append(measure_memory)
        for probe in probes:
            record = dict(stamp, **probe(wl))
            print(json.dumps(record), file=sys.stderr)
            log.append(record)
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
