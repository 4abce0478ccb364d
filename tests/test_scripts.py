"""The experiment scripts under scripts/ run against the installed package."""

import os
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


@pytest.mark.parametrize("name,args", [
    ("radius_sweep.py", ()),
    ("failure_rate.py", ("--trials", "2", "--threads", "1")),
])
def test_script_runs(name, args):
    done = run_script(name, *args)
    assert done.returncode == 0, done.stderr
    assert done.stdout
