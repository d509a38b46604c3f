"""One fresh process of a timed run.

    python3 perfbench/child.py setup <workload> <seed>
    python3 perfbench/child.py round <workload> <seed>

``setup`` builds the workload's first scenario, prints the host
monotonic clock at its first simulated event and stops; ``run.py``
takes the difference from the moment it launched the process.
``round`` runs one whole round and writes the pickled result (host
time of the program's calls, peak resident memory while they ran,
check snapshots and sweep CSV) to standard output.
"""

import pickle
import sys
import time

import srcpath  # noqa: F401  (import path set-up)
from pbftsim import netsim, scenario, sweeps

from workloads import WORKLOADS, Stopwatch, build, run_round


class FirstEvent(Exception):
    pass


def _first_event(engine, until_s):
    raise FirstEvent(time.monotonic())


def setup(wl, seed: int) -> None:
    netsim.Engine.run = _first_event
    try:
        target = build(wl, seed)
        if wl.is_sweep:
            sweeps.run_sweep(target)
        else:
            scenario.run_scenario(target)
    except FirstEvent as event:
        print(repr(event.args[0]))
        return
    sys.exit("child: the workload ran no event")


def one_round(wl, seed: int) -> None:
    watch = Stopwatch()
    snaps, csv = run_round(wl, seed, watch)
    sys.stdout.buffer.write(pickle.dumps(
        (watch.total, watch.peak_rss_kib, snaps, csv)))


def main() -> None:
    mode, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    {"setup": setup, "round": one_round}[mode](WORKLOADS[name], seed)


if __name__ == "__main__":
    main()
