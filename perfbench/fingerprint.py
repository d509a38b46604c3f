"""Behaviour fingerprints of the benchmark's workloads.

    python3 perfbench/fingerprint.py [--seed N] [workload ...]

For each workload (all by default, each at its default seed unless
``--seed`` is given) prints the SHA-256 of its rendered reports,
joined in run order, with the sweep CSV appended for the sweep, and
the program's event-trace hash (for the sweep, the SHA-256 of its
runs' trace hashes, one per line).  Equal fingerprints mean a change
left what a seed produces untouched.
"""

from __future__ import annotations

import argparse
import hashlib

import srcpath  # noqa: F401  (import path set-up)
from pbftsim import metrics, scenario, sweeps

from workloads import WORKLOADS, build


def fingerprint(wl, seed: int) -> tuple[str, str]:
    target = build(wl, seed)
    if wl.is_sweep:
        result = sweeps.run_sweep(target, trace=True)
        text = "".join(metrics.render_report(run.report)
                       for run in result.runs) + sweeps.emit_csv(result)
        traces = "".join(f"{run.trace_hash}\n" for run in result.runs)
        trace = hashlib.sha256(traces.encode()).hexdigest()
    else:
        result = scenario.run_scenario(target, trace=True)
        text = metrics.render_report(result.report)
        trace = result.trace_hash
    return hashlib.sha256(text.encode()).hexdigest(), trace


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("workloads", nargs="*", metavar="workload")
    args = parser.parse_args()
    for name in args.workloads or WORKLOADS:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}")
        wl = WORKLOADS[name]
        seed = wl.default_seed if args.seed is None else args.seed
        report, trace = fingerprint(wl, seed)
        print(f"{name} seed={seed} report_sha256={report} trace={trace}")


if __name__ == "__main__":
    main()
