"""Command-line front end: ``becmem <figN|tomography|optimize> [options]``.

Exit codes: 0 on success; 2 for any bad configuration (unknown key,
malformed, non-finite, out-of-range or inconsistent value, unreadable
config file, unwritable output file, sizes too large to allocate); 3 only
for numerical failures (non-convergent fits, singular reconstructions, a
non-finite value in the output table).  Each warning raised during a run
is printed to stderr as one ``becmem: warning:`` line.
"""

import argparse
import math
import sys
import warnings

import numpy as np

from . import __version__
from .commands import COMMANDS
from .config import ConfigError, load_config
from .csvio import write_table
from .memory import NOISE_PRESETS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="becmem",
        description="Model of EIT-based light storage in a Bose-Einstein "
                    "condensate: polarization memory, dephasing and "
                    "write-read efficiency.")
    parser.add_argument("--version", action="version",
                        version=f"becmem {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=(fn.__doc__ or "").split("\n")[0])
        p.add_argument("--config", metavar="PATH",
                       help="flat key=value config file")
        p.add_argument("--out", metavar="PATH", help="output CSV path")
        p.add_argument("--seed", type=int, metavar="N",
                       help="override the random seed")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", dest="overrides",
                       help="override one config key (repeatable)")
        p.add_argument("--preset", metavar="NAME", help="noise preset: "
                       f"{', '.join(NOISE_PRESETS)} or custom")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    failure = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")     # a repeated text prints each time
        try:
            cfg = load_config(args.config, args.overrides, args.preset,
                              args.seed)
            table = COMMANDS[args.command](cfg)
            if not all(math.isfinite(v) for row in table.rows for v in row
                       if isinstance(v, float)):
                raise ArithmeticError("non-finite value in the output table")
        except ConfigError as exc:
            failure = 2, f"config error: {exc}"
        except MemoryError as exc:
            failure = 2, f"config error: cannot allocate: {exc}"
        except (np.linalg.LinAlgError, ArithmeticError, RuntimeError,
                ValueError) as exc:
            failure = 3, f"numerical failure: {exc}"
    for w in caught:
        print(f"becmem: warning: {w.message}", file=sys.stderr)
    if failure:
        code, message = failure
        print(f"becmem: {message}", file=sys.stderr)
        return code
    out = args.out or cfg.raw["output.path"]   # "" means unset
    if not out and table.report is None:
        out = f"{args.command}.csv"
    if out:
        try:
            write_table(out, args.command, __version__, cfg.raw,
                        table.header, table.rows, table.extra_metadata)
        except OSError as exc:
            print(f"becmem: config error: cannot write output file {out}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2
    # the report is printed only once the run can no longer fail
    if table.report:
        print(table.report)
    if out:
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
