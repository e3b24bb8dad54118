"""The library examples of README.md run, and show the values they print.

Each fenced ``python`` block of the README is executed.  In the knapsack
block a line ``expr  # value`` claims what ``expr`` evaluates to; the
value is read as a Python literal and compared leaf by leaf.
"""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def leaves(value):
    if isinstance(value, (tuple, list)):
        return [leaf for item in value for leaf in leaves(item)]
    return [value]


def test_readme_has_two_library_examples():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("block", BLOCKS, ids=["outer-loop", "knapsack"])
def test_readme_example_runs(block):
    exec(compile(block, str(README), "exec"), {})


def test_readme_knapsack_example_shows_the_values_it_prints():
    block = next(b for b in BLOCKS if "KnapsackInstance" in b)
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        _, hash_, comment = lines[stmt.end_lineno - 1].partition("  #")
        if not (hash_ and isinstance(stmt, ast.Expr)):
            exec(compile(source, str(README), "exec"), namespace)
            continue
        got = leaves(eval(compile(source, str(README), "eval"), namespace))
        expected = leaves(ast.literal_eval(comment.strip()))
        assert len(got) == len(expected), source
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, rel=1e-12), source
        checked += 1
    assert checked == 3
