"""perfbench's span tracer still finds the names it counts.

``perfbench/trace_cli.py`` wraps becmemory's functions, and the scipy names
the package imports, by attribute name.  A rename would make a counter read
0 without failing anything, so each command below must report every listed
counter as non-zero, and the exact counts listed for it.  fig4's exact
counts pin its batching: one ``process_tomography`` call per noise preset,
one ``sample_shots`` call per (time, input), so 3 x 5 x 4, and the 9
structure warnings its draws give at the default seed.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]

CASES = {
    "fig4": (["fig4", "--set", "fig4.n_points=5", "--set", "fig4.shots=20"],
             ("memory.shots", "fitting.least_squares.nfev"),
             {"tomography.process_tomography.calls": 3,
              "memory.sample_shots.calls": 60,
              "tomography.structure_warnings": 9}),
    "fig7": (["fig7", "--set", "fig7.n_points=5"],
             ("efficiency.quad.calls",), {}),
}


@pytest.mark.parametrize("command", sorted(CASES))
def test_traced_counters_are_nonzero(command, tmp_path):
    argv, counters, exact = CASES[command]
    totals = tmp_path / "totals.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_cli.py"),
         str(totals), *argv, "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(totals.read_text())
    for name in counters:
        assert recorded[name] > 0, name
    assert {name: recorded[name] for name in exact} == exact
