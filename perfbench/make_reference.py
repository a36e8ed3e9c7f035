"""Record the reference outputs the workloads are checked against.

Usage (from the root of a checkout): python3 perfbench/make_reference.py

Runs every parameter set of every CLI command variant once through
``python -m becmemory.cli`` and writes a summary of each table (see
``checks.summarize``) to perfbench/reference.json, together with the fit of
every trace of the fit workloads' tables (see ``fit_worker.reference``).
The committed file was made at the commit that defined the benchmark;
regenerating it on a later commit would make the checks compare that
commit with itself.
"""

import json
import sys

import run
import workloads
from checks import summarize


def main():
    env = run.child_env()
    csv_path = run.WORK / "out.csv"
    entries = {}
    run.WORK.mkdir(exist_ok=True)
    try:
        for workload in workloads.CLI_WORKLOADS:
            for variant in workloads.WORKLOADS[workload]:
                for index in range(workloads.SETS):
                    params = workloads.parameter_set(variant, index)
                    csv_path.unlink(missing_ok=True)
                    argv = [run.PY, "-m", "becmemory.cli"] + \
                        workloads.cli_args(params, str(csv_path))
                    code, _, _ = run.run_child(argv, env)
                    key = f"{variant}/{index}"
                    if code != 0:
                        entries[key] = {"exit": code,
                                        "error": run.last_stderr_line()}
                        print(f"{key}: exit {code}", file=sys.stderr)
                    else:
                        entries[key] = summarize(csv_path.read_text())
        fits = {}
        for workload in workloads.FIT_SETS:
            code, _, _ = run.run_child(
                [run.PY, str(run.BENCH / "fit_worker.py"), "--reference",
                 workload], env)
            if code != 0:
                sys.exit(f"{workload} fits: exit {code}: "
                         f"{run.last_stderr_line()}")
            fits.update(json.loads(
                (run.WORK / "stdout.txt").read_text().splitlines()[-1]))
    finally:
        for path in run.WORK.iterdir():
            path.unlink()
        run.WORK.rmdir()

    def block(items):
        return ",\n".join(f" {json.dumps(key)}: "
                          f"{json.dumps(value, sort_keys=True)}"
                          for key, value in sorted(items.items()))

    with open(run.BENCH / "reference.json", "w", encoding="utf-8") as fh:
        fh.write(f'{{"rev": {json.dumps(run.git_rev())}, '
                 f'"sets": {workloads.SETS}, "entries": {{\n')
        fh.write(block(entries) + '\n}, "fits": {\n')
        fh.write(block(fits) + "\n}}\n")


if __name__ == "__main__":
    main()
