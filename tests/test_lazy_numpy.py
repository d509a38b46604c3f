"""numpy is imported only by a run that draws random numbers.

Each case runs in a fresh interpreter, since this test process has
imported numpy long before.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pbftsim

SRC = str(Path(pbftsim.__file__).resolve().parents[1])

CELL = """
import sys
import pbftsim
from pbftsim.metrics import render_report
from pbftsim.scenario import ScenarioConfig, run_scenario
assert "numpy" not in sys.modules, "import pbftsim loaded numpy"
config = ScenarioConfig(nodes=4, block_size=2, generation_period_s=1.0,
                        device_profile="mcu32", duration_s=120{extra})
render_report(run_scenario(config, trace=True).report)
print("numpy" in sys.modules)
"""


def numpy_loaded_by(extra: str) -> bool:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", CELL.format(extra=extra)],
                         env=env, check=True, capture_output=True,
                         text=True, timeout=120).stdout
    return {"True": True, "False": False}[out.strip()]


def test_draw_free_cell_never_imports_numpy():
    assert not numpy_loaded_by("")


@pytest.mark.parametrize("extra", [
    ", latency_dist='uniform', latency_mean_s=0.01",
    ", jitter=0.1",
], ids=["delay-law", "jitter"])
def test_drawing_cell_imports_numpy(extra):
    assert numpy_loaded_by(extra)
