"""Run one becmemory CLI command with the span tracer installed.

Usage: python perfbench/trace_cli.py TOTALS.json CLI-ARGUMENTS...

Behaves like ``python -m becmemory.cli CLI-ARGUMENTS...`` and, when the
command returns, writes the per-layer totals of the run to TOTALS.json.
"""

import json
import sys

import tracer


def main():
    totals_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.Tracer()
    mods = tracer.instrument(recorder)
    code = mods["cli"].main(argv)
    with open(totals_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.layer_totals(recorder), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
