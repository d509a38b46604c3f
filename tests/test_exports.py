"""Every name a module exports resolves, so a deletion cannot leave a
stale export behind."""

import importlib
import pkgutil

import pytest

import pbftsim

MODULES = [info.name for info in pkgutil.iter_modules(pbftsim.__path__,
                                                      "pbftsim.")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []
