"""Every name a module exports resolves, and every demo imports, so a
deletion cannot leave a stale export or a broken demo behind."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import pbftsim

MODULES = [info.name for info in pkgutil.iter_modules(pbftsim.__path__,
                                                      "pbftsim.")]
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos")
               .glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    # Loaded under its own name, not "__main__", so main() does not run.
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
