import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import cdtopt
from cdtopt import analytic, fem, knapsack
from cdtopt.problems import build_mbb

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


def _instance():
    return knapsack.KnapsackInstance([3.0, 1.0, 2.0], np.full(3, 1 / 3), 0.5)


ARRAY_RECORDS = {
    "StructuralModel": lambda: build_mbb(4, 2),
    "Displacement": lambda: fem.Displacement(np.zeros(3)),
    "KnapsackInstance": _instance,
    "DualPoint": lambda: knapsack.DualPoint(np.ones(3), 1.0),
    "BinaryDensity": lambda: knapsack.BinaryDensity([1.0, 0.0]),
    "InnerResult": lambda: knapsack.inner_fixed_point(_instance(), 0.5, 100.0),
    "SolveResult": lambda: knapsack.solve(_instance()),
    "CounterexampleResult": lambda: analytic.simp_counterexample(0.3, 2.7, 2.0, 1e-2),
}


@pytest.mark.parametrize("make", ARRAY_RECORDS.values(), ids=ARRAY_RECORDS.keys())
def test_records_that_hold_arrays_compare_and_hash_by_identity(make):
    # a field-wise == would compare arrays, whose truth value is ambiguous
    record, twin = make(), make()
    assert record == record and record != twin
    assert record in [twin, record] and twin not in [record]
    assert hash(record) == hash(record) and len({record, twin}) == 2
