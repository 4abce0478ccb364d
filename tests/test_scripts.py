"""The experiment scripts under scripts/, and the README's library
example, run against the package."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

WORKED_EXAMPLE = """\
code: RS(16, 4) over GF(17), locators a^0..a^15 with a = 3
half-distance radius: 6
virtual-interleaving radius at s=2: 7

f : 1 1 1 1
c : 4 6 4 6 0 3 12 2 0 14 7 9 0 15 15 4
e : 1 2 3 4 5 6 7 0 0 0 0 0 0 0 0 0
r : 5 8 7 10 5 9 2 2 0 14 7 9 0 15 15 4
r^<2> : 8 13 15 15 8 13 4 4 0 9 15 13 0 4 4 16

wb  : failure  (locator does not divide the message component)
virs: success  f = 1 1 1 1   errors at (0, 1, 2, 3, 4, 5, 6)
mgs : success  f = 1 1 1 1   errors at (0, 1, 2, 3, 4, 5, 6)

system A: 32x33, dim null = 1
system Bbar: 32x33, dim null = 1
diagonal scalars: (1, 15, 1)
solution spaces identical under D: True
"""


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_worked_example_output_is_frozen():
    done = run_script("worked_example.py")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == WORKED_EXAMPLE


def test_outcome_digest_is_pinned():
    # every field of every wb, virs and mgs outcome on the script's fixed
    # words; a change that moves any of them moves this hash
    done = run_script("outcome_digest.py")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (
        "2a8e70448bc46a895879c3671153c7485400dd45727b47d014c3d2e25c7c7c36  634 words, 13 codes\n"
    )


def test_readme_library_example_runs():
    # every bare expression of the block is a claim: true, unless its
    # comment says False
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    source = re.search(r"## Library in one minute\n\n```python\n(.*?)```", readme, re.S).group(1)
    lines = source.splitlines()
    namespace = {}
    claims = 0
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            expect = not lines[node.end_lineno - 1].rstrip().endswith("# False")
            assert bool(value) == expect, lines[node.lineno - 1]
            claims += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert claims == 3


@pytest.mark.parametrize("name,args", [
    ("radius_sweep.py", ()),
    ("failure_rate.py", ("--trials", "2", "--threads", "1")),
])
def test_script_runs(name, args):
    done = run_script(name, *args)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_every_mutant_snippet_occurs_once(monkeypatch):
    # scripts/mutants.py cannot rot silently: each snippet still marks
    # exactly one place in its file and each test it names still exists.
    # No mutant runs here
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "mutants", mutants)
    spec.loader.exec_module(mutants)
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert mutants.occurrences(m) == 1, m.name
        assert m.tests, m.name
        for test in m.tests:
            path, name = test.split("::")
            assert f"def {name.split('[')[0]}(" in (ROOT / path).read_text(encoding="utf-8"), test
