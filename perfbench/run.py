"""Benchmark of the simulator: speed, set-up and memory per workload.

    python3 perfbench/run.py --workload implant-30 --seed 5 \\
        --seconds 35 --trace 0

Without tracing the run first times set-up in fresh processes, then
runs whole rounds of the workload, each in a fresh process (see
``child.py``), for about ``--seconds``, and checks every operation
here.  It prints the end-to-end metrics:

  sim_s_per_s   simulated seconds of all rounds per host second spent
                on them, one set-up included, with host time scaled
                by the pace of a frozen reference run beside them
                (see ``reference.py``)
  setup_s       median time from process start to the first event
  peak_rss_mib  peak resident memory of a round's process while the
                program runs

With ``--trace 1`` it runs one plain round, one round with spans
around the program's calls and one under cProfile, checks all
three, and prints the per-layer metrics instead.  The last line of
standard output is always one JSON object.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pickle
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import srcpath  # noqa: F401  (import path set-up)
from checks import check_op, self_test
from tracing import Tracer, layer_metrics, model_checks, profile_counts
from workloads import (WORKLOADS, Stopwatch, op_expectations, run_round,
                       simulated_s)

HERE = Path(__file__).resolve().parent
PROBES = 7


def launch(mode: str, name: str, seed: int) -> bytes:
    """Standard output of one ``child.py`` process."""
    return subprocess.run(
        [sys.executable, str(HERE / "child.py"), mode, name, str(seed)],
        check=True, capture_output=True, timeout=170).stdout


def probe_setup(name: str, seed: int) -> float:
    """Seconds from launching a fresh process to its first event."""
    start = time.monotonic()
    return float(launch("setup", name, seed)) - start


def verify(wl, snaps, csv, reference) -> list[str]:
    """Check every operation and compare the round's output with the
    first round's; ``reference`` is filled on the first call."""
    problems = []
    expects = op_expectations(wl)
    for i, (snap, expect) in enumerate(zip(snaps, expects, strict=True)):
        problems += [f"op {i}: {name}: {detail}"
                     for name, detail in check_op(snap, expect, wl.name)]
    output = ([s.report for s in snaps], csv)
    if not reference:
        reference.append(output)
        problems += self_test(snaps[0], expects[0], wl.name)
    elif output != reference[0]:
        problems.append("round output differs from the first round's")
    return problems


def timed(wl, seed: int, seconds: float) -> dict:
    setups = [probe_setup(wl.name, seed) for _ in range(PROBES)]
    ops = len(op_expectations(wl))
    walls, spans, problems, reference = [], [], [], []
    attempted = failed = peak_kib = 0
    gauge = subprocess.Popen(
        [sys.executable, str(HERE / "reference.py"), wl.name, str(seed)],
        stdout=subprocess.PIPE, text=True)
    try:
        begin = time.perf_counter()
        # A round starts only if, at the pace so far, at least half of
        # it falls inside the window, so a run lasts about ``seconds``
        # however long its rounds are.
        while not spans or (time.perf_counter() - begin
                            + statistics.median(spans) / 2 < seconds):
            attempted += ops
            start = time.perf_counter()
            try:
                wall, rss_kib, snaps, csv = pickle.loads(
                    launch("round", wl.name, seed))
            except subprocess.CalledProcessError as exc:
                sys.stderr.write(exc.stderr.decode(errors="replace"))
                failed += ops
                continue
            finally:
                spans.append(time.perf_counter() - start)
            walls.append(wall)
            peak_kib = max(peak_kib, rss_kib)
            problems += verify(wl, snaps, csv, reference)
        # Wait for the reference's first round if it has not ended yet;
        # a round cut short by the stop is not counted.
        gauge_walls = [gauge.stdout.readline()]
    finally:
        gauge.terminate()
        rest, _ = gauge.communicate()
    gauge_walls = [float(w) for w in gauge_walls + rest.split() if w.strip()]
    if not walls:
        sys.exit("perfbench: every round failed")
    if not gauge_walls:
        sys.exit("perfbench: the reference ran no round")
    setup_s = statistics.median(setups)
    scale = wl.reference_s / statistics.mean(gauge_walls)
    host_s = setup_s + sum(walls)
    print(f"{wl.name}: {len(walls)} rounds, round s "
          f"{' '.join(f'{w:.3f}' for w in walls)}, setup s "
          f"{' '.join(f'{s:.3f}' for s in setups)}, reference round s "
          f"{' '.join(f'{w:.3f}' for w in gauge_walls)}, unscaled "
          f"{len(walls) * simulated_s(wl) / host_s:.2f} sim_s/s",
          file=sys.stderr)
    return {
        "problems": problems, "attempted": attempted, "failed": failed,
        "metrics": {
            "sim_s_per_s": (len(walls) * simulated_s(wl)
                            / (host_s * scale), "sim_s/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (peak_kib / 1024, "MiB"),
        },
    }


def traced(wl, seed: int) -> dict:
    rounds, problems, reference = [], [], []
    tracer = Tracer()
    profiler = cProfile.Profile()
    for mode in ("plain", "spans", "profile"):
        watch = Stopwatch(profiler if mode == "profile" else None)
        if mode == "spans":
            with tracer.installed():
                snaps, csv = run_round(wl, seed, watch)
        else:
            snaps, csv = run_round(wl, seed, watch)
        problems += [f"{mode}: {p}"
                     for p in verify(wl, snaps, csv, reference)]
        rounds.append((snaps, watch))
    (_, plain), (snaps, spans), _ = rounds
    problems += [f"model: {name}: {detail}"
                 for name, detail in model_checks(wl, tracer, snaps)]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{wl.name}-{seed}.npz")
    ops = len(op_expectations(wl))
    return {
        "problems": problems, "attempted": 3 * ops, "failed": 0,
        "metrics": layer_metrics(tracer, snaps, profile_counts(profiler),
                                 spans, plain.total),
    }


def main() -> None:
    # Stopping the benchmark stops the processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the preset's)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    result = traced(wl, seed) if args.trace else timed(wl, seed,
                                                       args.seconds)
    for problem in result["problems"][:50]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
