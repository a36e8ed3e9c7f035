"""becmemory benchmark: one run of one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and ``README.md`` for why each exists):

* cli-short, cli-efficiency: closed loop, one client, each operation one
  ``python -m becmemory.cli <command>`` subprocess with PYTHONPATH=src.
* fit-lattice, fit-irregular: closed loop, one client, in a fresh child
  process that imports becmemory and fits Monte-Carlo Faraday traces.

With ``--trace 0`` the run measures the end-to-end metrics for S seconds,
taking its start-up samples between operations (``startup.py``).
With ``--trace 1`` it runs untraced for S/2 seconds and then, with the span
tracer of ``tracer.py`` installed in each child, for at least S/2 seconds of
whole command cycles, and reports the per-layer metrics as means per traced
operation.  Every operation's output is checked (``checks.py``); an
operation that fails is counted, never retried or dropped.

Two JSON lines are printed last: a run record (context, sample counts,
operations per command, failures) and then the result object.  The program
exits 2 without a result when it cannot measure, e.g. when ``src/`` is
missing.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import workloads
from checks import check_table
from startup import StartupError, StartupProbe
from tracer import COMMAND_NAMES

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = ROOT / ".perfbench_work"
PY = sys.executable
SETUP_SAMPLES = 10
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.becmemory_self_s": "s",
    "config.load_config.busy_s": "s/op",
    "cli.busy_s": "s/op",
    "csvio.write_table.busy_s": "s/op",
    "csvio.bytes_written": "B/op",
    **{f"commands.{c}.self_s": "s/op" for c in COMMAND_NAMES},
    "efficiency.transverse_average_eta.calls": "count/op",
    "efficiency.transverse_average_eta.busy_s": "s/op",
    "efficiency.quad.calls": "count/op",
    "efficiency.eta_total.calls": "count/op",
    "efficiency.eta_total.busy_s": "s/op",
    "efficiency.optimize_eta.busy_s": "s/op",
    "eit.susceptibility.calls": "count/op",
    "eit.busy_s": "s/op",
    "memory.sample_shots.calls": "count/op",
    "memory.shots": "count/op",
    "memory.busy_s": "s/op",
    "tomography.process_tomography.calls": "count/op",
    "tomography.busy_s": "s/op",
    "tomography.structure_warnings": "count/op",
    "fitting.fit_damped_sinusoid.calls": "count/op",
    "fitting.fit_damped_sinusoid.busy_s": "s/op",
    "fitting.prefit_s": "s/op",
    "fitting.least_squares.nfev": "count/op",
    "fitting.converged_frac": "fraction",
    "fitting.off_basin_frac": "fraction",
    "fitting.fit_gaussian_decay.busy_s": "s/op",
    "src.lines": "lines",
    "trace.overhead_frac": "fraction",
}


class MeasurementError(Exception):
    """The benchmark cannot take a measurement in this checkout."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, env):
    """Run one child to completion: (exit code, wall s, peak RSS MB).

    Output goes to files in the work directory; the child's own resource
    usage comes from wait4, so each child's peak RSS is its own.
    """
    out_path, err_path = WORK / "stdout.txt", WORK / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def last_stderr_line():
    lines = (WORK / "stderr.txt").read_text(errors="replace").splitlines()
    return lines[-1] if lines else ""


def entry_point(workload):
    """(setup command, module whose import it pays) of a workload."""
    if workload in workloads.CLI_WORKLOADS:
        return [PY, "-m", "becmemory.cli", "--version"], "becmemory.cli"
    return [PY, "-c", "import becmemory"], "becmemory"


def import_times(module, env):
    """Medians of total, scipy and becmemory self import time, from
    ``python -X importtime``."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        code, _, _ = run_child([PY, "-X", "importtime", "-c",
                                f"import {module}"], env)
        if code != 0:
            raise MeasurementError(f"import {module} exited {code}")
        total = scipy = own = 0
        for line in (WORK / "stderr.txt").read_text().splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            self_us, name = int(fields[0]), fields[2].strip()
            total += self_us
            if name.split(".")[0] == "scipy":
                scipy += self_us
            elif name.split(".")[0] == "becmemory":
                own += self_us
        runs.append((total, scipy, own))
    return {name: statistics.median(r[i] for r in runs) / 1e6
            for i, name in enumerate(("import.total_s", "import.scipy_s",
                                      "import.becmemory_self_s"))}


def load_references():
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def check_cli(params, code, csv_path, refs):
    """Problems of one CLI operation (empty when it passed)."""
    if code != 0:
        return [f"exit code {code}: {last_stderr_line()}"]
    if not csv_path.exists():
        return ["no CSV written"]
    ref = refs.get(f"{params['variant']}/{params['index']}")
    if ref is None or "exit" in ref:
        return ["no reference output for this parameter set"]
    return check_table(params["command"], csv_path.read_text(), ref)


class OpLog:
    """Latencies, failures and per-command counts of one loop."""

    def __init__(self):
        self.latencies = []
        self.variants = []
        self.failures = []
        self.attempted = 0
        self.peak_rss_mb = 0.0
        self.wall = 0.0
        self.setup_walls = []
        self.off_basin = []
        self.totals = Counter()

    def medians(self):
        """Median latency of each command variant."""
        by_variant = {}
        for variant, latency in zip(self.variants, self.latencies):
            by_variant.setdefault(variant, []).append(latency)
        return {v: statistics.median(ls) for v, ls in by_variant.items()}


def tracing_overhead(plain, traced):
    """Median over command variants of traced / untraced median latency,
    minus 1, so a different command mix in the two loops does not count."""
    before, after = plain.medians(), traced.medians()
    return statistics.median(after[v] / before[v] for v in after
                             if v in before) - 1.0


def run_cli_ops(ops, seconds, cycle, refs, env, traced, probe=None):
    """Closed loop of CLI subprocesses for ``seconds``, with the start-up
    samples of ``probe`` between operations; a traced loop also finishes
    its last command cycle, so each command is traced equally."""
    log = OpLog()
    csv_path, totals_path = WORK / "out.csv", WORK / "totals.json"
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or (traced and len(log.latencies) % cycle)):
        if probe:
            probe.due(time.perf_counter() - start)
        params = next(ops)
        csv_path.unlink(missing_ok=True)
        totals_path.unlink(missing_ok=True)
        args = workloads.cli_args(params, str(csv_path))
        argv = [PY, str(BENCH / "trace_cli.py"), str(totals_path)] + args \
            if traced else [PY, "-m", "becmemory.cli"] + args
        code, wall, rss = run_child(argv, env)
        problems = check_cli(params, code, csv_path, refs)
        log.latencies.append(wall)
        log.variants.append(params["variant"])
        log.attempted += 1
        log.peak_rss_mb = max(log.peak_rss_mb, rss)
        if problems:
            log.failures.append(f"{params['variant']}/{params['index']}: "
                                f"{problems[0]}")
        if traced and totals_path.exists():
            log.totals.update(json.loads(totals_path.read_text()))
    if probe:
        probe.finish()
        log.setup_walls = probe.walls
    log.wall = time.perf_counter() - start - (probe.total if probe else 0)
    return log


def run_cli(workload, seed, seconds, trace, env):
    refs = load_references()
    cycle = len(workloads.WORKLOADS[workload])
    ops = workloads.cli_operations(workload, seed)
    if not trace:
        setup_cmd, _ = entry_point(workload)
        probe = StartupProbe(setup_cmd, env, ROOT, SETUP_SAMPLES, seconds)
        return run_cli_ops(ops, seconds, cycle, refs, env, False,
                           probe), None
    plain = run_cli_ops(ops, seconds / 2, cycle, refs, env, False)
    traced = run_cli_ops(ops, seconds / 2, cycle, refs, env, True)
    return plain, traced


def run_library(workload, seed, seconds, trace, env):
    argv = [PY, str(BENCH / "fit_worker.py"), workload, str(seed),
            repr(seconds), str(int(trace)), str(SETUP_SAMPLES)]
    code, _, rss = run_child(argv, env)
    if code != 0:
        raise MeasurementError(f"fit worker exited {code}: "
                               f"{last_stderr_line()}")
    out = json.loads((WORK / "stdout.txt").read_text().splitlines()[-1])
    plain = OpLog()
    plain.latencies, plain.wall = out["latencies"], out["wall"]
    plain.setup_walls = out["setup_walls"]
    plain.off_basin = out["off_basin"]    # of all checked fits
    plain.variants = ["fit"] * len(plain.latencies)
    plain.peak_rss_mb = rss
    plain.failures = out["failures"]
    plain.attempted = out["attempted"]   # includes warm-up and traced ops
    traced = None
    if trace:
        traced = OpLog()
        traced.latencies = out["traced_latencies"]
        traced.variants = ["fit"] * len(traced.latencies)
        traced.totals = Counter(out["totals"])
    return plain, traced


def tail(latencies):
    """(value, percentile) of the highest percentile with >= 10 samples
    beyond it: the 11th-largest latency."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[max(n - 11, 0)], 100.0 * max(n - 10, 0) / n


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "becmemory").glob("*.py")))


def git_rev():
    """Commit of the checkout, or "unknown" when it is not a git work tree
    (git is not asked to look above the checkout)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def version_of(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "unknown"


def layer_metrics(traced, imports, overhead):
    n = max(len(traced.latencies), 1)
    totals = traced.totals
    values = dict(imports)
    for name in PER_LAYER:
        if name not in values and name in totals:
            values[name] = totals[name] / n
        values.setdefault(name, 0.0)
    fits = totals.get("fitting.fits", 0)
    values["fitting.converged_frac"] = \
        totals.get("fitting.converged", 0) / fits if fits else 1.0
    values["fitting.off_basin_frac"] = totals.get("fitting.off_basin", 0) / n
    values["src.lines"] = src_lines()
    values["trace.overhead_frac"] = overhead
    return values


def measure(workload, seed, seconds, trace):
    env = child_env()
    setup_cmd, module = entry_point(workload)
    # Untimed first start: compiles the package's bytecode once.
    code, _, _ = run_child(setup_cmd, env)
    if code != 0:
        raise MeasurementError(f"{' '.join(setup_cmd[1:])} exited {code}: "
                               f"{last_stderr_line()}")
    imports = import_times(module, env) if trace else None
    runner = run_cli if workload in workloads.CLI_WORKLOADS else run_library
    plain, traced = runner(workload, seed, seconds, trace, env)

    failures = plain.failures + (traced.failures if traced else [])
    attempted = plain.attempted + (traced.attempted if traced else 0)
    p50 = statistics.median(plain.latencies)
    tail_value, tail_pct = tail(plain.latencies)
    if trace:
        values = layer_metrics(traced, imports,
                               tracing_overhead(plain, traced))
        units = PER_LAYER
    else:
        values = {"setup_s": statistics.median(plain.setup_walls),
                  "op_p50_s": p50, "op_tail_s": tail_value,
                  "ops_per_s": len(plain.latencies) / plain.wall,
                  "peak_rss_mb": plain.peak_rss_mb}
        units = END_TO_END
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "git_rev": git_rev(), "cpu": cpu_model(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": version_of("numpy"), "scipy": version_of("scipy"),
        "src_lines": src_lines(), "samples": len(plain.latencies),
        "traced_samples": len(traced.latencies) if traced else 0,
        "tail_percentile": tail_pct, "setup_samples": len(plain.setup_walls),
        "ops_by_command": dict(Counter(plain.variants)),
        "failed_frac": len(failures) / attempted, "failures": failures[:20],
        "off_basin_fits": len(plain.off_basin),
        "off_basin_traces": sorted(set(plain.off_basin)),
    }
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    return record, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "becmemory" / "__init__.py").is_file():
        print(f"perfbench: no becmemory sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        record, result = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except (MeasurementError, StartupError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        for path in WORK.iterdir():
            path.unlink()
        WORK.rmdir()
    for failure in record["failures"]:
        print(f"perfbench: failed operation {failure}", file=sys.stderr)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
