"""Correctness checks of one benchmark operation.

A CLI operation passes when the command exits 0 and its CSV has the
reference header and row count, a finite number in every numeric cell, and
key values within tolerance of the output recorded in ``reference.json``.
The recorded output is summarized as a few evenly spaced cells per numeric
column, the column sum, and the numeric metadata lines (fitted widths,
chi0, fidelity statistics).

Tolerances are relative to max(|reference|, largest |value| in the column);
metadata values, printed with fewer digits, also get half a unit in the
last digit the reference was printed with:

* 1e-7 by default: the CLI promises byte-identical tables per (config,
  seed), and a refactor may move only the last digits (a Gauss-Legendre
  efficiency kernel is expected to move fig7 by ~1e-10).
* 1e-6 for fig4's Gaussian fit of alpha(t), a least-squares result.
* 2e-4 for optimize's eta*, twice the optimizer's relative refine tolerance.
* 5e-2 for where optimize finds the optimum, and the quantities derived
  from that location: the optimum is flat, so the location may move by the
  square root of the refine tolerance while eta* stays put.

A fit operation passes when the fit converges with finite parameters, its
omega_F lies within ``OMEGA_RTOL`` of ``faraday_frequency`` (the true basin
or one next to it), and either

* omega_F is within ``SAME_BASIN_RTOL`` of the omega_F recorded for the
  same trace in ``reference.json``: the fit ends in the same local minimum
  as at the commit that defined the benchmark, or
* the fit ends in another minimum whose chi2 per degree of freedom is no
  larger than the recorded one (to ``CHI2_RTOL``): a better least-squares
  answer, so a frequency scan that finds the global minimum where the
  recorded fit did not is not counted as a failure.

A fit that moves to another basin and fits worse fails.
"""

import csv
import math
from decimal import Decimal, InvalidOperation

TEXT_COLUMNS = frozenset({"preset", "input", "basis", "on_boundary"})
RTOL = 1e-7
COLUMN_RTOL = {
    ("fig4", "alpha_fit"): 1e-6,
    ("optimize", "eta"): 2e-4,
    ("optimize", "omega_c_mhz"): 5e-2,
    ("optimize", "t0_ns"): 5e-2,
    ("optimize", "tau_d_ns"): 5e-2,
    ("optimize", "transparency_width_mhz"): 5e-2,
    ("optimize", "delay_ratio"): 5e-2,
}
META_RTOL = {"fig4": 1e-6}
SAMPLES = 8
# The four windows, about 490 us apart, fix omega_F only modulo
# 2 pi / 490 us, i.e. to about 1.0% of omega_F, so the chi2 surface has a
# basin every ~1% around the true frequency.  OMEGA_RTOL admits the true
# basin and its neighbours; anything further away is wrong outright.
OMEGA_RTOL = 0.015
# Refits of one trace from nearby starts agree to ~1e-10 and the statistical
# error of omega_F is ~1e-5, while basins are ~1e-2 apart.
SAME_BASIN_RTOL = 1e-4
# Half the basin spacing: an omega_F further than this from the true one
# is in another basin.
TRUE_BASIN_RTOL = 0.005
CHI2_RTOL = 1e-6


def parse_csv(text):
    """(metadata dict, header, rows) of a table written by the CLI."""
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if sep:
                meta[key.strip()] = value.strip()
        elif line:
            body.append(line)
    rows = list(csv.reader(body))
    if not rows:
        return meta, [], []
    return meta, rows[0], rows[1:]


def _numeric_meta(meta):
    out = {}
    for key, value in meta.items():
        if key.startswith("config.") or key in ("artifact", "command",
                                                "seed"):
            continue
        try:
            float(value)
        except ValueError:
            continue
        out[key] = value
    return out


def _sample_indices(n):
    if n <= SAMPLES:
        return list(range(n))
    return sorted({round(i * (n - 1) / (SAMPLES - 1))
                   for i in range(SAMPLES)})


def summarize(text):
    """Reference summary of one CSV (see the module docstring).

    Cells are kept as printed, at the rows ``_sample_indices`` picks."""
    meta, header, rows = parse_csv(text)
    idx = _sample_indices(len(rows))
    columns = {}
    for j, name in enumerate(header):
        cells = [row[j] for row in rows]
        if name in TEXT_COLUMNS:
            columns[name] = {"val": [cells[i] for i in idx]}
            continue
        values = [float(c) for c in cells]
        columns[name] = {"val": [cells[i] for i in idx],
                         "sum": math.fsum(values),
                         "scale": max(abs(v) for v in values)}
    return {"header": header, "rows": len(rows), "columns": columns,
            "meta": _numeric_meta(meta)}


def _half_digit(text):
    try:
        return 0.5 * 10.0 ** Decimal(text.strip()).as_tuple().exponent
    except (InvalidOperation, TypeError):
        return 0.0


def _close(value, ref_text, rtol, scale=0.0, slack=0.0):
    ref = float(ref_text)
    return abs(value - ref) <= rtol * max(abs(ref), scale) + slack


def check_table(command, text, ref):
    """Problems found in one CLI table; an empty list means it passed."""
    meta, header, rows = parse_csv(text)
    if header != ref["header"]:
        return [f"header {header} != reference {ref['header']}"]
    if len(rows) != ref["rows"]:
        return [f"{len(rows)} rows, reference has {ref['rows']}"]
    problems = []
    idx = _sample_indices(len(rows))
    for r, row in enumerate(rows):
        if len(row) != len(header):
            return [f"row {r} has {len(row)} cells, header {len(header)}"]
        for name, cell in zip(header, row):
            if name in TEXT_COLUMNS:
                continue
            try:
                finite = math.isfinite(float(cell))
            except ValueError:
                finite = False
            if not finite:
                problems.append(f"row {r} {name}: non-finite {cell!r}")
    if problems:
        return problems
    for j, name in enumerate(header):
        col = ref["columns"][name]
        if name in TEXT_COLUMNS:
            got = [rows[i][j] for i in idx]
            if got != col["val"]:
                problems.append(f"{name}: {got} != reference {col['val']}")
            continue
        rtol = COLUMN_RTOL.get((command, name), RTOL)
        for i, ref_text in zip(idx, col["val"]):
            if not _close(float(rows[i][j]), ref_text, rtol, col["scale"]):
                problems.append(f"{name}[{i}] = {rows[i][j]}, reference "
                                f"{ref_text}")
        total = math.fsum(float(row[j]) for row in rows)
        if abs(total - col["sum"]) > rtol * col["scale"] * len(rows):
            problems.append(f"{name} sums to {total!r}, reference "
                            f"{col['sum']!r}")
    got_meta = _numeric_meta(meta)
    for key, ref_text in ref["meta"].items():
        if key not in got_meta:
            problems.append(f"metadata {key!r} missing")
        elif not _close(float(got_meta[key]), ref_text,
                        META_RTOL.get(command, RTOL),
                        slack=_half_digit(ref_text)):
            problems.append(f"metadata {key} = {got_meta[key]}, reference "
                            f"{ref_text}")
    return problems


def check_fit(fit, omega_true, ref):
    """Problems found in one damped-sinusoid fit of a Faraday trace, given
    the true omega_F and the fit recorded for the trace."""
    if not fit.converged:
        return [f"fit did not converge: {fit.message}"]
    if not all(math.isfinite(v) for v in fit.params.values()):
        return [f"non-finite fit parameters {fit.params}"]
    omega = fit.params["omega_f"]
    err = omega / omega_true - 1.0
    if abs(err) > OMEGA_RTOL:
        return [f"omega_F off by {err:.3g} relative (tolerance "
                f"{OMEGA_RTOL})"]
    moved = omega / ref["omega_f"] - 1.0
    if (abs(moved) > SAME_BASIN_RTOL and fit.chi2_per_dof
            > ref["chi2_per_dof"] * (1.0 + CHI2_RTOL)):
        return [f"omega_F moved by {moved:.3g} relative from the recorded "
                f"fit to a worse minimum (chi2/dof {fit.chi2_per_dof:.6g} > "
                f"{ref['chi2_per_dof']:.6g})"]
    return []


def off_true_basin(fit, omega_true):
    """Whether a converged fit's omega_F lies in another basin than the
    true frequency's."""
    return abs(fit.params["omega_f"] / omega_true - 1.0) > TRUE_BASIN_RTOL
