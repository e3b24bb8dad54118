import importlib
import inspect
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


@pytest.mark.parametrize("name", MODULES)
def test_every_public_definition_is_in_all(name):
    # a public class or function left out of __all__ is missing from the API
    module = importlib.import_module(name)
    defined = [n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
               and obj.__module__ == name]
    assert [n for n in defined if n not in module.__all__] == []
