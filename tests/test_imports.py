"""Importing becmemory, running any command or fitting a sinusoid or a
Gaussian decay loads no scipy.

scipy's subpackages cost most of a short command's start-up, so the
efficiency layer (fig7 and optimize) and every fit's solver use numpy
kernels instead; only the scaled-model fit imports scipy, for its
interpolant, inside the kernel.  Each check runs one command through
``becmemory.cli.main``, or one fit, in a fresh interpreter, so it covers
``import becmemory`` and ``import becmemory.cli`` too, and lists the
``scipy`` modules loaded by then; a stray top-level import fails it.  No
time is measured.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]

REPORT = ("import json, sys\n"
          "print(json.dumps(sorted(m for m in sys.modules\n"
          "                        if m.split('.')[0] == 'scipy')))\n")

SCIPY_FREE = {
    "fig3": ["fig3", "--set", "fig3.window_starts_us=0",
             "--set", "fig3.step_us=5.0"],
    "fig4": ["fig4", "--set", "fig4.n_points=5", "--set", "fig4.shots=20"],
    "fig5": ["fig5", "--set", "fig5.n_points=5"],
    "fig6": ["fig6", "--set", "fig6.n_points=5"],
    "fig7": ["fig7", "--set", "fig7.n_points=5"],
    "fig8": ["fig8", "--set", "fig8.n_points=5"],
    "optimize": ["optimize", "--set", "optimize.grid=8"],
    "optimize-on-axis": ["optimize", "--set", "optimize.grid=8",
                         "--set", "optimize.averaged=false"],
    "tomography": ["tomography", "--set", "tomography.repeats=1"],
}


def scipy_modules(code, cwd):
    """The scipy modules loaded after running ``code`` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code + "\n" + REPORT],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def run_command(argv):
    return ("from becmemory.cli import main\n"
            f"assert main({argv!r}) == 0\n")


@pytest.mark.parametrize("command", sorted(SCIPY_FREE))
def test_short_command_loads_no_scipy(command, tmp_path):
    argv = [*SCIPY_FREE[command], "--out", str(tmp_path / "out.csv")]
    assert scipy_modules(run_command(argv), tmp_path) == set()


def test_sinusoid_fit_loads_no_scipy(tmp_path):
    # a noisy damped sinusoid on fig3's four-window lattice of 0.25 us
    code = """
import numpy as np
from becmemory import DataSeries, fit_damped_sinusoid
x = np.concatenate([np.arange(s, s + 25.125, 0.25)
                    for s in (0.0, 495.0, 980.0, 2380.0)]) * 1e-6
noise = 0.05 * np.random.default_rng(5).normal(size=x.size)
y = np.exp(-x**2 / 2e-6) * np.cos(1.26e6 * x - 0.3) + noise
assert fit_damped_sinusoid(DataSeries(x, y)).converged
"""
    assert scipy_modules(code, tmp_path) == set()


def test_gaussian_decay_fit_loads_no_scipy(tmp_path):
    # fig4's fit of a noisy alpha(t) over 2.2 sigma
    code = """
import numpy as np
from becmemory import DataSeries, fit_gaussian_decay
x = np.linspace(0.0, 2.2 * 5.7e-5, 25)
noise = 0.01 * np.random.default_rng(5).normal(size=x.size)
y = np.exp(-x**2 / (2 * 5.7e-5**2)) + noise
assert fit_gaussian_decay(DataSeries(x, y)).converged
"""
    assert scipy_modules(code, tmp_path) == set()
