"""Puts the checkout's ``src`` first on the import path.

The benchmark runs the program from the source tree it sits in, never
an installed copy; without that tree it stops with a non-zero status.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

if not (SRC / "pbftsim" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program source at {SRC}")
sys.path.insert(0, str(SRC))
