"""Summarize a ``tools/bench_pairs.py`` output file, per workload and metric.

Usage (from anywhere inside the repository):

    python3 tools/bench_summary.py BENCH_14.json

For every workload and every metric perfbench reported, it prints each
side's median and interquartile range over its runs, the ratio of the
medians (change / parent), and in how many pairs the change was better,
by the direction ``BENCHMARK.json`` at the repository root gives the
metric.  For a metric in s or 1/s it also prints the median over pairs of
the pair's ratio over (s) or times (1/s) the same pair's ``setup_s`` ratio.
``setup_s`` times interpreter start and ``import becmemory``, so this ratio
discounts a host that was slower for one run of the pair, but only for a
change that leaves start-up alone: a change to the imports moves
``setup_s`` itself, and the ratio then discounts the change's own effect.
So when the two sides' ``setup_s`` medians differ by more than the
parent's interquartile range, a warning under the workload's heading says
so, and its ``/setup`` column should not be read.  A run that exited
non-zero or reported ``correct: false`` is listed and left out of the
statistics.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values):
    """(q1, median, q3) of a non-empty list."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def read_runs(path):
    """{(workload, trace, seed, side): metrics} and a list of failed runs.

    A pair is named by its seed, which stays unique when one file holds
    several ``bench_pairs`` invocations with different ``--seed``.
    """
    runs, failed, header = {}, [], None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if "bench_pairs" in record:
            header = record["bench_pairs"]
            args = dict(zip(header["args"][::2], header["args"][1::2]))
            key = (args["--workload"], int(args["--trace"]),
                   int(args["--seed"]), header["side"])
            if header["exit"] != 0:
                failed.append(key)
        elif "metrics" in record and header is not None:
            if record.get("correct") is False:
                failed.append(key)
            elif header["exit"] == 0:
                runs[key] = {name: m["value"]
                             for name, m in record["metrics"].items()}
    return runs, failed


def declared(repo):
    """{metric: (better, unit)} from BENCHMARK.json."""
    bench = json.loads((repo / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["unit"])
            for m in bench["end_to_end"] + bench["per_layer"]}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    runs, failed = read_runs(argv[0])
    spec = declared(Path(__file__).resolve().parent.parent)
    groups = defaultdict(lambda: defaultdict(dict))
    for (workload, trace, seed, side), metrics in runs.items():
        groups[workload, trace][seed][side] = metrics
    for key in failed:
        print("failed run: workload %s, trace %d, seed %d, %s" % key)
    for (workload, trace), pairs in groups.items():
        both = [p for p in pairs.values() if all(s in p for s in SIDES)]
        # the metrics every run of the group reported, in perfbench's order
        names = [n for n in both[0]["parent"]
                 if all(n in p[s] for p in both for s in SIDES)] \
            if both else []
        width = max(map(len, names), default=6)
        print(f"\n{workload} (trace {trace}): {len(both)} complete pairs")
        if "setup_s" in names:
            q1, parent, q3 = quartiles([p["parent"]["setup_s"] for p in both])
            change = statistics.median(p["change"]["setup_s"] for p in both)
            if abs(change - parent) > q3 - q1:
                print(f"  warning: setup_s moved {parent:.4g} -> "
                      f"{change:.4g} s, more than the parent's IQR "
                      f"{q3 - q1:.4g} s; the /setup ratios discount it")
        print(f"  {'metric':<{width}} {'parent median [IQR]':>34} "
              f"{'change median [IQR]':>34} {'ratio':>6} {'/setup':>6} "
              f"{'better':>7}")
        for name in names:
            cells = []
            for side in SIDES:
                q1, q2, q3 = quartiles([p[side][name] for p in both])
                cells.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}]")
            med = {s: statistics.median(p[s][name] for p in both)
                   for s in SIDES}
            ratio = med["change"] / med["parent"] if med["parent"] else None
            better, unit = spec.get(name, (None, None))
            power = {"s": -1, "1/s": 1}.get(unit)
            normalized = statistics.median(
                (p["change"][name] / p["parent"][name])
                * (p["change"]["setup_s"] / p["parent"]["setup_s"])**power
                for p in both) if power and "setup_s" in names \
                and all(p["parent"][name] for p in both) else None
            sign = {"lower": -1, "higher": 1}.get(better)
            wins = "" if sign is None else "%d/%d" % (sum(
                sign * (p["change"][name] - p["parent"][name]) > 0
                for p in both), len(both))
            ratios = [" " * 6 if x is None else f"{x:6.3f}"
                      for x in (ratio, normalized)]
            print(f"  {name:<{width}} {cells[0]:>34} {cells[1]:>34} "
                  f"{ratios[0]} {ratios[1]} {wins:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
