"""The reference runner: gauges the host's speed during a timed run.

    python3 perfbench/reference.py <workload> <seed>

Runs whole rounds of the workload, one after another until it is
stopped, with the copy of the simulator frozen in ``reference/``
instead of the checkout's ``src/``, and prints the host seconds of the
program's calls in each round as the round ends.

The host's speed drifts by tens of per cent over minutes, and on both
cores at once, so two runs of the same code can differ by more than
the regressions the benchmark must catch.  ``run.py`` therefore runs
this beside the measured rounds and scales their host time by how far
the reference ran from its usual pace (see ``Workload.reference_s``).
The reference is the program as it was when the benchmark was made,
so the host slows both alike, while a change to ``src/`` moves only
the measured rounds.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "reference"))

from workloads import WORKLOADS, Stopwatch, run_round  # noqa: E402


def main() -> None:
    wl, seed = WORKLOADS[sys.argv[1]], int(sys.argv[2])
    while True:
        watch = Stopwatch()
        run_round(wl, seed, watch)
        print(repr(watch.total), flush=True)


if __name__ == "__main__":
    main()
