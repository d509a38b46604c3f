"""Print one SHA-256 over the trace hashes and reports of a fixed grid.

A refactor that must keep every seed's behaviour runs this before and
after the change; the two digests are equal when every cell produced
the same events and the same report bytes.  The grid crosses network
size (4, 7, 10), block size (1, 5), a fault (none, a crash of the
view-0 primary, a crash of it and its successor, an equivocating
view-0 primary) and a delay law (uniform, normal, exponential), each
once with the default buffers and seed 1 and once with 1200-byte
buffers and seed 2: 144 cells of 300 simulated seconds.

    python3 tools/grid_digest.py

It imports ``pbftsim`` from the ``src/`` directory next to it and
prints the digest on standard output, the cell count and run time on
standard error.  It exits 1, naming the pinned and the new digest,
when the digest differs from ``PINNED``; a change that moves what a
seed produces re-pins it and says why.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pbftsim.metrics import render_report  # noqa: E402
from pbftsim.scenario import ScenarioConfig, run_scenario  # noqa: E402

FAULTS = {
    "none": {},
    "primary-crash": {"crashes": ((0, 40.0),)},
    "double-crash": {"crashes": ((0, 40.0), (1, 90.0))},
    "equivocator": {"equivocators": (0,)},
}
LAWS = {"uniform": 0.01, "normal": 0.05, "exponential": 0.02}
BUFFERS_AND_SEEDS = ((None, 1), (1200, 2))
PINNED = "703f119df0df90a33ef449cea36ad456292fdac9be8bf3c4e905b3de740f3606"


def cells():
    for n, block, fault, law, (buffer, seed) in itertools.product(
            (4, 7, 10), (1, 5), FAULTS, LAWS, BUFFERS_AND_SEEDS):
        name = f"n{n}-b{block}-{fault}-{law}-buf{buffer or 'default'}-s{seed}"
        yield name, ScenarioConfig(
            nodes=n, block_size=block, generation_period_s=1.0,
            device_profile="mcu32", latency_dist=law,
            latency_mean_s=LAWS[law], buffer_capacity_bytes=buffer,
            duration_s=300, seed=seed, **FAULTS[fault])


def main() -> int:
    combined = hashlib.sha256()
    start = time.perf_counter()
    count = 0
    for name, config in cells():
        result = run_scenario(config, trace=True)
        report = hashlib.sha256(render_report(result.report).encode())
        line = f"{name} {result.trace_hash} {report.hexdigest()}\n"
        combined.update(line.encode())
        count += 1
    digest = combined.hexdigest()
    print(digest)
    sys.stderr.write(f"{count} cells in {time.perf_counter() - start:.1f} s\n")
    if digest != PINNED:
        sys.stderr.write(f"grid digest changed: pinned {PINNED}, "
                         f"got {digest}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
