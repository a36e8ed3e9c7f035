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
the largest relative change of omega_F's standard error, of sigma_alpha
and of sigma_alpha's standard error, how many fits of each side report
sigma_alpha = inf, every trace whose convergence changed, how many coarse
frequency scans (``fitting._coarse_scan``) returned other bits, the fits
off the true frequency's basin (``checks.off_true_basin``), and every
``check_fit`` failure of either side against perfbench's reference.  For
each side it also prints the median over the traces of the in-process
time of one ``fit_damped_sinusoid`` call, the fastest of three on the same
trace, the draws excluded, and the mean number of residual evaluations
(``least_squares``' nfev) per fit: over all traces, and over each fit
workload's alone.  It exits 1 when CHANGE fails ``check_fit`` on a trace,
and 0 otherwise.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from types import SimpleNamespace

from bench_pairs import two_trees

# Run in each revision's interpreter: fit every trace, print one JSON object.
# The wrappers record each fit's nfev and coarse-scan frequency, and time it
# three times.
FIT_ALL = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import becmemory, fit_worker, workloads
from becmemory import fitting
seen = {}

def recorded(fn, key, value):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        seen.setdefault(key, []).append(value(result))
        return result
    return wrapper

def timed(*args, **kwargs):
    walls = []
    for _ in range(3):
        start = time.perf_counter()
        result = fit_damped_sinusoid(*args, **kwargs)
        walls.append(time.perf_counter() - start)
    seen["fit_s"] = min(walls)
    return result

fit_damped_sinusoid = becmemory.fit_damped_sinusoid
becmemory.fit_damped_sinusoid = timed
fitting.least_squares = recorded(fitting.least_squares, "nfev",
                                 lambda r: r.nfev)
fitting._coarse_scan = recorded(fitting._coarse_scan, "scan", float.hex)
fits = {}
for workload, count in workloads.FIT_SETS.items():
    for index in range(count):
        seen.clear()
        fit, omega_true = fit_worker.fit_trace(
            workloads.fit_parameter_set(workload, index))
        fits[f"{workload}/{index}"] = {
            "params": fit.params, "std_errors": fit.std_errors,
            "chi2_per_dof": fit.chi2_per_dof, "converged": fit.converged,
            "message": fit.message, "omega_true": omega_true, **seen}
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


def relative_change(old, new):
    """|new / old - 1|: 0 for equal values, inf where only one is inf."""
    if old == new:
        return 0.0
    return math.inf if math.isinf(old) or math.isinf(new) \
        else abs(new / old - 1.0)


def compare(fits, checks, refs):
    """Report lines and the number of ``checks.check_fit`` failures of
    CHANGE."""
    parent, change = fits["parent"], fits["change"]
    failures = {side: [] for side in fits}
    for side, side_fits in fits.items():
        for key, fit in side_fits.items():
            for problem in checks.check_fit(SimpleNamespace(**fit),
                                            fit["omega_true"], refs[key]):
                failures[side].append(f"{key}: {problem}")
    keys = sorted(parent)
    both = [k for k in keys if parent[k]["converged"]
            and change[k]["converged"]]

    def largest(field, name):
        return max((relative_change(parent[k][field][name],
                                    change[k][field][name]) for k in both),
                   default=0.0)

    ratios = [change[k]["chi2_per_dof"] / parent[k]["chi2_per_dof"]
              for k in both]
    unenveloped = {side: sum(fit["params"].get("sigma_alpha") == math.inf
                             for fit in side_fits.values())
                   for side, side_fits in fits.items()}
    converged = [f"{k}: parent {parent[k]['converged']}, change "
                 f"{change[k]['converged']}" for k in keys
                 if parent[k]["converged"] != change[k]["converged"]]
    scans = [k for k in keys if parent[k]["scan"] != change[k]["scan"]]
    off = {side: {k for k in both if checks.off_true_basin(
        SimpleNamespace(**side_fits[k]), side_fits[k]["omega_true"])}
        for side, side_fits in fits.items()}
    lines = [
        f"{len(both)} of {len(keys)} traces converged on both sides",
        f"largest |omega_F change| / omega_F: "
        f"{largest('params', 'omega_f'):.3g}",
        f"chi2/dof ratio (change / parent): "
        f"[{min(ratios, default=1.0) - 1.0:+.3g}, "
        f"{max(ratios, default=1.0) - 1.0:+.3g}] from 1; "
        f"lower in {sum(r < 1.0 for r in ratios)}, "
        f"higher in {sum(r > 1.0 for r in ratios)}",
        f"largest |change| of omega_F's std error, relative: "
        f"{largest('std_errors', 'omega_f'):.3g}",
        f"largest |change| of sigma_alpha, relative: "
        f"{largest('params', 'sigma_alpha'):.3g}",
        f"largest |change| of sigma_alpha's std error, relative: "
        f"{largest('std_errors', 'sigma_alpha'):.3g}",
        f"fits reporting sigma_alpha = inf: parent {unenveloped['parent']}, "
        f"change {unenveloped['change']}",
        f"changed convergence: {len(converged)}",
        *(f"  {line}" for line in converged),
        f"coarse scans with other bits: {len(scans)}",
        *(f"  {k}" for k in scans),
        f"fits off the true basin: parent {len(off['parent'])}, change "
        f"{len(off['change'])}; changed basin: "
        f"{sorted(off['parent'] ^ off['change'])}"]
    workloads = sorted({k.split("/")[0] for k in keys})
    for side, side_fits in fits.items():
        for workload in ("all", *workloads):
            group = [f for k, f in side_fits.items()
                     if workload in ("all", k.split("/")[0])]
            fit_ms = statistics.median(f["fit_s"] for f in group)
            nfev = statistics.mean(f["nfev"][0] for f in group)
            lines.append(f"{side}, {workload}: median fit time "
                         f"{fit_ms * 1e3:.3f} ms, mean nfev per fit "
                         f"{nfev:.2f}")
    for side in fits:
        lines.append(f"check_fit failures, {side}: {len(failures[side])}")
        lines += [f"  {line}" for line in failures[side]]
    return lines, len(failures["change"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    with two_trees(args.parent, args.change, "fit_diff_") \
            as (_, revs, trees):
        perfbench = trees["parent"] / "perfbench"
        fits = {side: fit_all(tree, perfbench)
                for side, tree in trees.items()}
        sys.path.insert(0, str(perfbench))
        import checks
        refs = json.loads((perfbench / "reference.json").read_text())["fits"]

    lines, failed = compare(fits, checks, refs)
    print(f"fit_diff: parent {revs['parent'][:10]} vs change "
          f"{revs['change'][:10]}")
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
