"""Compare the CSVs two git revisions write for the benchmark's CLI inputs.

Usage (from anywhere inside the repository):

    python3 tools/csv_diff.py PARENT CHANGE

Each revision is checked out into its own temporary clone, as
``tools/bench_pairs.py`` does.  Both run ``python -m becmemory.cli`` from
their own ``src`` on the same 129 inputs: every parameter set of
perfbench's two CLI workloads (9 command variants x 12 sets, read from
``perfbench/workloads.py``), each variant once with its defaults (fig3
to fig8, tomography, and optimize averaged and on axis), and twelve runs
of paths that no parameter set takes.  Four have the detector noise off
(``detector.relative_sigma=0``): tomography with exact states, with
3 x 300 shots and with attenuation on at sigma_B = 0, and fig4.  Four add
the slow-light delay to the rotation angle
(``rotation.include_pulse_delay=true``): fig3, fig4, and tomography with
exact states and with 3 x 300 shots.  One runs tomography with 3 x 300
shots at sigma_B = 0 and the detector noise on: every shot is the same,
so their mean can leave the Poincare sphere by rounding, and this run
takes ``clamp_physical``'s scaling branch.  Three run at a large detector
noise, where every reconstruction leaves the memory form: tomography at
``detector.relative_sigma=0.8`` with 3 repeats, which prints a structure
warning per repeat; tomography at 20 with 40 repeats, among whose warnings
some texts repeat, each still printed; and fig4 at 0.4, which suppresses
them and so prints none (from 0.5 up its alpha(t) data resolve no decay
and it exits 3).  The parameter sets, ``perfbench/checks.py`` and
``perfbench/reference.json`` are read from PARENT's clone and never
written.

Each side runs from its own working directory with the same relative
``--out`` path, so the two sides' stdout (``optimize``'s report and the
``wrote`` line) can be compared byte for byte.

It prints how many CSVs are byte-identical; the runs whose stdout or
stderr differs byte for byte; for each column that changed, per command
variant, the largest |change| over the column's scale (the largest
|value| PARENT wrote in it) and how many cells changed; every metadata
line that changed; and every ``check_table`` failure of either side
against perfbench's reference. It exits 1 when a run fails or CHANGE
fails ``check_table``, and 0 otherwise.
"""

import argparse
import csv
import json
import os
import subprocess
import sys

from bench_pairs import two_trees

# perfbench's CLI workloads and the default runs of their command variants
CLI_WORKLOADS = ("cli-short", "cli-efficiency")
DEFAULTS = {"optimize-on-axis": ["optimize", "--set",
                                 "optimize.averaged=false"]}
# runs of paths no parameter set takes: label -> argv
NOISELESS = ["--set", "detector.relative_sigma=0"]
DELAY = ["--set", "rotation.include_pulse_delay=true"]
SHOTS = ["--set", "tomography.shots=300", "--set", "tomography.repeats=3"]
STATIC_FIELD = ["--set", "noise.preset=custom", "--set", "noise.sigma_b_mg=0"]
EXTRA_RUNS = {
    "tomography/noiseless": ["tomography", *NOISELESS],
    "tomography/noiseless-shots": ["tomography", *NOISELESS, *SHOTS],
    "tomography/noiseless-attenuated": [
        "tomography", *NOISELESS, "--set", "attenuation.enabled=true",
        *STATIC_FIELD],
    "fig4/noiseless": ["fig4", *NOISELESS],
    "fig3/pulse-delay": ["fig3", *DELAY],
    "fig4/pulse-delay": ["fig4", *DELAY],
    "tomography/pulse-delay": ["tomography", *DELAY],
    "tomography/pulse-delay-shots": ["tomography", *DELAY, *SHOTS],
    "tomography/static-field-shots": ["tomography", *SHOTS, *STATIC_FIELD],
    "tomography/noisy-detector": ["tomography", "--set",
                                  "detector.relative_sigma=0.8", "--set",
                                  "tomography.repeats=3"],
    "tomography/repeated-warnings": ["tomography", "--set",
                                     "detector.relative_sigma=20", "--set",
                                     "tomography.repeats=40"],
    "fig4/noisy-detector": ["fig4", "--set", "detector.relative_sigma=0.4"],
}


def inputs(workloads):
    """(label, variant, perfbench parameter set or None, default argv)."""
    variants = [v for w in CLI_WORKLOADS for v in workloads.WORKLOADS[w]]
    runs = [(f"{v}/{i}", v, workloads.parameter_set(v, i), None)
            for v in variants for i in range(workloads.SETS)]
    runs += [(f"{v}/default", v, None, DEFAULTS.get(v, [v]))
             for v in variants]
    return runs + [(label, label.split("/")[0], None, argv)
                   for label, argv in EXTRA_RUNS.items()]


def run_cli(tree, argv, cwd):
    """Exit code, stdout and stderr of one CLI run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "becmemory.cli", *argv],
                          cwd=cwd, env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def split(text):
    """Metadata lines and the table rows of one CSV."""
    lines = text.splitlines()
    meta = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(line for line in lines
                           if line and not line.startswith("#")))
    return meta, rows


def as_float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def column_changes(old_rows, new_rows):
    """{column: (largest |change| / scale or None for text, cells changed,
    cells)} of the columns with a changed cell, or a layout message."""
    if not old_rows or old_rows[0] != new_rows[0] \
            or len(old_rows) != len(new_rows):
        return "header or row count changed"
    changes = {}
    for j, name in enumerate(old_rows[0]):
        old = [row[j] for row in old_rows[1:]]
        new = [row[j] for row in new_rows[1:]]
        changed = sum(a != b for a, b in zip(old, new))
        if not changed:
            continue
        old_v = [as_float(c) for c in old]
        new_v = [as_float(c) for c in new]
        worst = None
        if None not in old_v and None not in new_v:
            scale = max(abs(v) for v in old_v) or 1.0
            worst = max(abs(b - a) for a, b in zip(old_v, new_v)) / scale
        changes[name] = (worst, changed, len(old))
    return changes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    with two_trees(args.parent, args.change, "csv_diff_") \
            as (_, revs, trees):
        sys.path.insert(0, str(trees["parent"] / "perfbench"))
        import workloads
        from checks import check_table
        refs = json.loads((trees["parent"] / "perfbench"
                           / "reference.json").read_text())["entries"]

        runs = inputs(workloads)
        texts = {}
        outs = {}
        errs = {}
        failures = []
        for label, _, params, default_argv in runs:
            out = label.replace("/", "_") + ".csv"    # relative to cwd
            cli_argv = workloads.cli_args(params, out) if params \
                else [*default_argv, "--out", out]
            for side, tree in trees.items():
                cwd = tree.parent / "out" / side
                cwd.mkdir(parents=True, exist_ok=True)
                code, outs[side, label], errs[side, label] = run_cli(
                    tree, cli_argv, cwd)
                if code != 0:
                    last = errs[side, label].decode(errors="replace")
                    last = (last.strip().splitlines() or [""])[-1]
                    failures.append(f"{side} {label}: exit {code}: {last}")
                else:
                    texts[side, label] = (cwd / out).read_text(
                        encoding="utf-8")

    identical = 0
    columns = {}         # (variant, column) -> [worst, cells changed, cells]
    meta_lines = []
    layout = []
    stdout, stderr = ([label for label, *_ in runs
                       if std["parent", label] != std["change", label]]
                      for std in (outs, errs))
    checked = {"parent": [], "change": []}
    for label, variant, params, _ in runs:
        if ("parent", label) not in texts or ("change", label) not in texts:
            continue
        old, new = texts["parent", label], texts["change", label]
        if params is not None:
            for side, text in (("parent", old), ("change", new)):
                for problem in check_table(params["command"], text,
                                           refs[label]):
                    checked[side].append(f"{label}: {problem}")
        if old == new:
            identical += 1
            continue
        (old_meta, old_rows), (new_meta, new_rows) = split(old), split(new)
        meta_lines += [f"{label}: - {line}" for line in old_meta
                       if line not in new_meta]
        meta_lines += [f"{label}: + {line}" for line in new_meta
                       if line not in old_meta]
        changes = column_changes(old_rows, new_rows)
        if isinstance(changes, str):
            layout.append(f"{label}: {changes}")
            continue
        for name, (worst, changed, cells) in changes.items():
            entry = columns.setdefault((variant, name), [worst, 0, 0])
            if worst is not None and entry[0] is not None:
                entry[0] = max(entry[0], worst)
            entry[1] += changed
            entry[2] += cells

    print(f"csv_diff: parent {revs['parent'][:10]} vs change "
          f"{revs['change'][:10]}")
    print(f"{identical} of {len(runs)} CSVs byte-identical")
    print("changed columns (largest |change| / column scale, cells changed"
          " / cells in the CSVs that changed):")
    for (variant, name), (worst, changed, cells) in sorted(columns.items()):
        size = "text" if worst is None else f"{worst:.3g}"
        print(f"  {variant:18s} {name:24s} {size:>10s}  {changed}/{cells}")
    if not columns:
        print("  none")
    for title, lines in (("runs whose stdout differs", stdout),
                         ("runs whose stderr differs", stderr),
                         ("changed metadata lines", meta_lines),
                         ("changed table layouts", layout),
                         ("failed runs", failures),
                         ("check_table failures, parent", checked["parent"]),
                         ("check_table failures, change", checked["change"])):
        print(f"{title}: {len(lines)}")
        for line in lines:
            print(f"  {line}")
    return 1 if failures or checked["change"] else 0


if __name__ == "__main__":
    sys.exit(main())
