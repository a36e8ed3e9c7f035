"""Compare the sinusoid fits two git revisions make of the benchmark's traces.

Usage (from anywhere inside the repository):

    python3 tools/fit_diff.py PARENT CHANGE

Each revision is checked out into its own temporary clone, as
``tools/bench_pairs.py`` does.  A fresh interpreter per revision, with that
revision's ``src`` on its path, draws and fits every trace of perfbench's
two fit workloads (96 on fig3's lattice and 64 jittered off it) with
``perfbench/fit_worker.py``'s ``fit_trace``.  The traces, ``checks.py`` and
``reference.json`` are read from PARENT's clone and never written, so both
sides fit the same data.

It prints the largest |change| of omega_F over PARENT's, the range of the
chi2/dof ratio (CHANGE / PARENT) and how many fits got lower or higher,
the largest relative change of omega_F's standard error, every trace whose
convergence changed, and every ``check_fit`` failure of either side against
perfbench's reference.  It exits 1 when CHANGE fails ``check_fit`` on a
trace, and 0 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

from bench_pairs import checkout, git

# Run in each revision's interpreter: fit every trace, print one JSON object.
FIT_ALL = """
import json, sys
sys.path.insert(0, sys.argv[1])
import fit_worker, workloads
fits = {}
for workload, count in workloads.FIT_SETS.items():
    for index in range(count):
        fit, omega_true = fit_worker.fit_trace(
            workloads.fit_parameter_set(workload, index))
        fits[f"{workload}/{index}"] = {
            "params": fit.params, "std_errors": fit.std_errors,
            "chi2_per_dof": fit.chi2_per_dof, "converged": fit.converged,
            "message": fit.message, "omega_true": omega_true}
print(json.dumps(fits))
"""


def fit_all(tree, perfbench):
    """{trace: fit record} of every perfbench fit trace, fitted by the
    ``becmemory`` in ``tree / "src"``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", FIT_ALL, str(perfbench)],
                          env=env, cwd=tree, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def compare(fits, check_fit, refs):
    """Report lines and the number of ``check_fit`` failures of CHANGE."""
    parent, change = fits["parent"], fits["change"]
    failures = {side: [] for side in fits}
    for side, side_fits in fits.items():
        for key, fit in side_fits.items():
            for problem in check_fit(SimpleNamespace(**fit),
                                     fit["omega_true"], refs[key]):
                failures[side].append(f"{key}: {problem}")
    keys = sorted(parent)
    both = [k for k in keys if parent[k]["converged"]
            and change[k]["converged"]]
    omega = max((abs(change[k]["params"]["omega_f"]
                     / parent[k]["params"]["omega_f"] - 1.0) for k in both),
                default=0.0)
    ratios = [change[k]["chi2_per_dof"] / parent[k]["chi2_per_dof"]
              for k in both]
    error = max((abs(change[k]["std_errors"]["omega_f"]
                     / parent[k]["std_errors"]["omega_f"] - 1.0)
                 for k in both), default=0.0)
    converged = [f"{k}: parent {parent[k]['converged']}, change "
                 f"{change[k]['converged']}" for k in keys
                 if parent[k]["converged"] != change[k]["converged"]]
    lines = [
        f"{len(both)} of {len(keys)} traces converged on both sides",
        f"largest |omega_F change| / omega_F: {omega:.3g}",
        f"chi2/dof ratio (change / parent): "
        f"[{min(ratios, default=1.0) - 1.0:+.3g}, "
        f"{max(ratios, default=1.0) - 1.0:+.3g}] from 1; "
        f"lower in {sum(r < 1.0 for r in ratios)}, "
        f"higher in {sum(r > 1.0 for r in ratios)}",
        f"largest |change| of omega_F's std error, relative: {error:.3g}",
        f"changed convergence: {len(converged)}",
        *(f"  {line}" for line in converged)]
    for side in fits:
        lines.append(f"check_fit failures, {side}: {len(failures[side])}")
        lines += [f"  {line}" for line in failures[side]]
    return lines, len(failures["change"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    repo = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    revs = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=repo)
            for side, rev in (("parent", args.parent),
                              ("change", args.change))}
    with tempfile.TemporaryDirectory(prefix="fit_diff_") as tmp:
        trees = {side: checkout(repo, rev, Path(tmp) / side)
                 for side, rev in revs.items()}
        perfbench = trees["parent"] / "perfbench"
        fits = {side: fit_all(tree, perfbench)
                for side, tree in trees.items()}
        sys.path.insert(0, str(perfbench))
        from checks import check_fit
        refs = json.loads((perfbench / "reference.json").read_text())["fits"]

    lines, failed = compare(fits, check_fit, refs)
    print(f"fit_diff: parent {revs['parent'][:10]} vs change "
          f"{revs['change'][:10]}")
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
