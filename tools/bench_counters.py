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
from pbftsim import metrics, scenario, sweeps  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

REPS = 5


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


def measure(wl) -> dict:
    profiler = cProfile.Profile()
    profiler.enable()
    events = run_once(wl)
    profiler.disable()
    calls = sum(entry.callcount for entry in profiler.getstats())
    walls = []
    for _ in range(REPS):
        start = time.perf_counter()
        if run_once(wl) != events:
            sys.exit(f"{wl.name}: event count changed between runs")
        walls.append(time.perf_counter() - start)
    return {
        "workload": wl.name,
        "seed": wl.default_seed,
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
        record = dict(stamp, **measure(wl))
        print(json.dumps(record), file=sys.stderr)
        log.append(record)
        args.out.write_text(json.dumps(log, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
