import importlib
import pkgutil

import pytest

import cdtopt

MODULES = ["cdtopt"] + [f"cdtopt.{m.name}" for m in pkgutil.iter_modules(cdtopt.__path__)
                        if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    # a stale export breaks `from <module> import *`
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
