"""The library and CLI examples of README.md run, and show the values
they print.

Each fenced ``python`` block of the README is executed.  In the knapsack
block a line ``expr  # value`` claims what ``expr`` evaluates to; the
value is read as a Python literal and compared leaf by leaf.  Each command
line of the ``## CLI`` block runs through ``cli.main``.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from cdtopt import cli

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


def cli_commands():
    """The command lines of the README's ``## CLI`` block, continuation
    lines joined and trailing comments stripped, as argv after the program."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.M | re.S).group(1)
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        program = 3 if words[:3] == ["python", "-m", "cdtopt"] else 1
        assert words[:program] in (["cdtopt"], ["python", "-m", "cdtopt"]), line
        commands.append(words[program:])
    return commands


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # every flag the README shows still parses, and each command writes
    # the files the Outputs section names (into ./out, the default)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
    commands = cli_commands()
    assert len(commands) == 8
    for argv in commands:
        assert cli.main(argv) == 0, argv
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == [
        "cantilever_simp_density.pgm", "cantilever_simp_record.csv", "cost_probe.csv",
        "double_well_roots.csv", "mbb_cdt_density.pgm", "mbb_cdt_record.csv",
        "simp_surface.csv"]
    outputs = README.read_text().split("\n### Outputs\n", 1)[1].split("\n## ", 1)[0]
    for name in ("mbb_cdt_density.pgm", "cantilever_simp_density.pgm"):
        assert (out / name).read_bytes().startswith(b"P5\n")
    for name in ("mbb_cdt_record.csv", "cantilever_simp_record.csv", "cost_probe.csv"):
        header = (out / name).read_text().splitlines()[0]
        assert f"`{header}`" in outputs, name
