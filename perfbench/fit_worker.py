"""Library workload: fit Monte-Carlo Faraday traces in one process.

Usage: python perfbench/fit_worker.py WORKLOAD SEED SECONDS TRACE SAMPLES
       python perfbench/fit_worker.py --reference WORKLOAD

One operation draws a trace of the workload's table (``workloads.py``) on
fig3's four-window lattice (sample times jittered off the lattice for
fit-irregular) with ``sample_shots``, averaging 16 shots per point, fits it
with ``fit_damped_sinusoid`` and checks the fit (``checks.check_fit``).
One untimed warm-up operation runs first.  With TRACE=0 operations run for
SECONDS, with SAMPLES start-up samples of ``import becmemory`` spread
between them; with TRACE=1 they run untraced for half of SECONDS and then
traced for the other half.  The last line printed is a JSON object with the
latencies, start-up samples, failures and traced per-layer totals.

With ``--reference`` it fits every trace of the workload's table once and
prints the fitted omega_F and chi2 per degree of freedom of each, as JSON,
for ``make_reference.py``.
"""

import json
import os
import sys
import time

import numpy as np

import becmemory
import checks
import tracer
import workloads
from startup import StartupProbe


def sample_times(jitter, rng):
    """fig3's lattice in seconds, each time pushed later by up to ``jitter``
    lattice steps."""
    step = workloads.FIT_STEP_US
    x = np.concatenate([
        np.arange(s, s + workloads.FIT_WINDOW_LENGTH_US + step / 2, step)
        for s in workloads.FIT_WINDOW_STARTS_US])
    if jitter:
        x = x + rng.uniform(0.0, jitter, x.size) * step
    return x * 1e-6


def fit_trace(p):
    """Draw and fit one trace: (fit, faraday_frequency of its field)."""
    x = sample_times(p["jitter"], np.random.default_rng(p["mc_seed"]))
    noise = becmemory.NoiseModel(p["mean_bz"], p["sigma_b"])
    u_in = becmemory.PoincareVector(1.0, 0.0, 0.0)
    y = np.empty(x.size)
    for i, t in enumerate(x):
        shots = becmemory.sample_shots(
            u_in, float(t), 0.0, 1.0, noise, workloads.FIT_SHOTS_PER_POINT,
            np.random.SeedSequence(p["mc_seed"], spawn_key=(i,)))
        y[i] = float(np.mean(shots[:, 1] / shots[:, 0]))
    fit = becmemory.fit_damped_sinusoid(becmemory.DataSeries(x, y))
    return fit, becmemory.faraday_frequency(p["mean_bz"])


def operation(p, refs):
    """Draw, fit and check one trace: (problems found, whether omega_F is
    outside the true frequency's basin)."""
    try:
        fit, omega_true = fit_trace(p)
    except Exception as exc:  # a failed operation, counted and reported
        return [f"{type(exc).__name__}: {exc}"], False
    key = f"{p['workload']}/{p['index']}"
    if key not in refs:
        return ["no reference fit for this trace"], False
    problems = checks.check_fit(fit, omega_true, refs[key])
    return problems, not problems and checks.off_true_basin(fit, omega_true)


def run_ops(ops, refs, seconds, probe=None):
    """Closed loop for ``seconds`` (at least one operation), with the
    start-up samples of ``probe`` between operations."""
    latencies, failures, off_basin = [], [], []
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < seconds:
        if probe:
            probe.due(time.perf_counter() - start)
        p = next(ops)
        t0 = time.perf_counter()
        problems, off = operation(p, refs)
        latencies.append(time.perf_counter() - t0)
        key = f"{p['workload']}/{p['index']}"
        if problems:
            failures.append(f"trace {key}: {problems[0]}")
        if off:
            off_basin.append(key)
    if probe:
        probe.finish()
    wall = time.perf_counter() - start - (probe.total if probe else 0)
    return latencies, failures, off_basin, wall


def load_fit_references():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["fits"]


def reference(workload):
    fits = {}
    for index in range(workloads.FIT_SETS[workload]):
        fit, omega_true = fit_trace(
            workloads.fit_parameter_set(workload, index))
        fits[f"{workload}/{index}"] = {
            "omega_f": fit.params["omega_f"],
            "chi2_per_dof": fit.chi2_per_dof,
            "converged": fit.converged,
            "omega_f_error": fit.params["omega_f"] / omega_true - 1.0}
    print(json.dumps(fits))


def main():
    if sys.argv[1] == "--reference":
        reference(sys.argv[2])
        return
    workload, seed = sys.argv[1], int(sys.argv[2])
    seconds, trace = float(sys.argv[3]), sys.argv[4] == "1"
    refs = load_fit_references()
    ops = workloads.fit_operations(workload, seed)
    failures = [f"warm-up: {p}" for p in operation(next(ops), refs)[0]]
    probe = None if trace else StartupProbe(
        [sys.executable, "-c", "import becmemory"], os.environ, os.getcwd(),
        int(sys.argv[5]), seconds)
    latencies, failed, off_basin, wall = run_ops(
        ops, refs, seconds / 2 if trace else seconds, probe)
    failures += failed
    result = {"latencies": latencies, "wall": wall,
              "setup_walls": probe.walls if probe else [],
              "attempted": 1 + len(latencies)}
    if trace:
        recorder = tracer.Tracer()
        tracer.instrument(recorder)
        traced, failed, traced_off, _ = run_ops(ops, refs, seconds / 2)
        failures += failed
        totals = tracer.layer_totals(recorder)
        totals["fitting.off_basin"] = len(traced_off)
        result.update(traced_latencies=traced, totals=totals,
                      attempted=result["attempted"] + len(traced))
        off_basin += traced_off
    result["off_basin"] = off_basin
    result["failed"] = len(failures)
    result["failures"] = failures
    print(json.dumps(result))


if __name__ == "__main__":
    main()
