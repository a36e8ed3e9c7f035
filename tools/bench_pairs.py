"""Run perfbench on two git revisions in alternating pairs and keep its lines.

Usage (from anywhere inside the repository):

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_7.json \\
        --workload cli-short --pairs 10 --trace 0

Each revision is checked out into its own temporary clone (``git clone
--shared``, so the repository's own refs, index and work tree are left
alone), and ``python3 perfbench/run.py`` runs from each clone's root with
identical arguments.  The run length is the benchmark's ``run_seconds``
(``BENCHMARK.json`` at the repository root).  Pair ``i`` uses seed
``--seed + i`` on both sides; the parent runs first in even pairs and the
change in odd ones.  ``--workload`` may be repeated: each pair then runs
every workload in turn, so that the runs of the workloads interleave and a
slow phase of the host falls on all of them alike.

The output file is appended to, one JSON object per line: for every run a
``bench_pairs`` line naming the side, revision, pair, arguments and exit
code, followed by the lines perfbench printed on stdout, verbatim (its
``run_record`` and result lines); perfbench's stderr passes through.
Nothing is computed, changed or left out: compare the sides from the file.
"""

import argparse
import contextlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

RUN = ["python3", "perfbench/run.py"]


def git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout(repo, rev, path):
    """A clone of ``repo`` at path with ``rev`` checked out (detached)."""
    git("clone", "--quiet", "--shared", "--no-checkout", str(repo),
        str(path), cwd=repo)
    git("checkout", "--quiet", "--detach", rev, cwd=path)
    return path


@contextlib.contextmanager
def two_trees(parent, change, prefix):
    """Check ``parent`` and ``change`` out, each into its own clone in one
    temporary directory named with ``prefix``, removed when the block ends.

    Yields the repository root (of the working directory), {side: commit}
    and {side: clone}, the sides being "parent" and "change".
    """
    repo = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    revs = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=repo)
            for side, rev in (("parent", parent), ("change", change))}
    with tempfile.TemporaryDirectory(prefix=prefix) as tmp:
        yield repo, revs, {side: checkout(repo, rev, Path(tmp) / side)
                           for side, rev in revs.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True, type=Path,
                        help="JSON-lines file to append to")
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of pair 0; pair i uses seed + i")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = args.out.resolve()
    with two_trees(args.parent, args.change, "bench_pairs_") \
            as (repo, revs, trees):
        seconds = json.loads(
            (repo / "BENCHMARK.json").read_text())["run_seconds"]
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 \
                else ("change", "parent")
            for workload in args.workload:
                bench_args = ["--workload", workload,
                              "--seed", str(args.seed + pair),
                              "--seconds", str(seconds),
                              "--trace", str(args.trace)]
                for side in order:
                    proc = subprocess.run(RUN + bench_args, cwd=trees[side],
                                          stdout=subprocess.PIPE, text=True)
                    header = {"bench_pairs": {
                        "side": side, "rev": revs[side], "pair": pair,
                        "args": bench_args, "exit": proc.returncode}}
                    lines = [json.dumps(header), *proc.stdout.splitlines()]
                    with open(out, "a", encoding="utf-8") as fh:
                        fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
