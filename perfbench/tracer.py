"""In-memory span tracer that instruments becmemory from the outside.

``instrument`` replaces the public functions of every becmemory module, and
the names the modules import from one another or from scipy, with wrappers
that record a span (name, start, end, parent) and a few counters.  Nothing
inside the package is edited: the wrappers are installed on module
attributes after import, so a traced process runs the same code paths as an
untraced one plus the wrapper cost, which the benchmark reports as
``trace.overhead_frac``.
"""

import functools
import importlib
import os
import time
import types
import warnings
from collections import Counter

COMMAND_NAMES = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "tomography",
                 "optimize")
MODULES = ("polarization", "memory", "tomography", "eit", "efficiency",
           "fitting", "config", "csvio", "commands", "cli")

# Functions of other packages that a module imports by name; counted as a
# span of the importing layer.
FOREIGN = {"efficiency": ("quad",), "fitting": ("least_squares",)}
# Called once per CSV cell: a span per call would mostly time the tracer.
UNTRACED = frozenset({"csvio.format_value"})


class Tracer:
    """Records nested spans of one thread plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = Counter()
        self._stack = []

    def open(self, name):
        self.spans.append([name, self.clock(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = self.clock()

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(counters, result)``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(self.counters, result)
            return result

        return traced


def summarize(spans):
    """Per span name: calls, busy (inclusive) and self time.

    Self time is a span's duration minus the durations of its direct
    children.  Busy time counts only spans with no ancestor of the same
    name, so recursion is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["self"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            entry["busy"] += end - start
    return out


def time_inside(spans, name, ancestor):
    """Busy time of spans ``name`` that run inside a span ``ancestor``."""
    total = 0.0
    for span_name, start, end, parent in spans:
        if span_name != name:
            continue
        p = parent
        while p >= 0 and spans[p][0] != ancestor:
            p = spans[p][3]
        if p >= 0:
            total += end - start
    return total


class _CountingWarnings:
    """Stands in for the ``warnings`` module inside one becmemory module."""

    def __init__(self, counters, key):
        self._counters = counters
        self._key = key

    def warn(self, *args, **kwargs):
        self._counters[self._key] += 1
        kwargs["stacklevel"] = kwargs.get("stacklevel", 1) + 1
        return warnings.warn(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(warnings, name)


def _count_shots(counters, result):
    counters["memory.shots"] += len(result)


def _count_nfev(counters, result):
    counters["fitting.least_squares.nfev"] += int(result.nfev)


def _count_converged(counters, result):
    counters["fitting.fits"] += 1
    counters["fitting.converged"] += bool(result.converged)


def _count_bytes(counters, path):
    counters["csvio.bytes_written"] += os.path.getsize(path)


AFTER = {
    "memory.sample_shots": _count_shots,
    "fitting.least_squares": _count_nfev,
    "fitting.fit_damped_sinusoid": _count_converged,
    "fitting.fit_gaussian_decay": _count_converged,
    "fitting.fit_scaled_model": _count_converged,
    "csvio.write_table": _count_bytes,
}


def instrument(tracer):
    """Wrap becmemory's public functions and cross-module names in spans.

    Every module attribute bound to a wrapped object is replaced, so a call
    is traced whether it goes through the defining module or through a name
    another module imported.  Command functions are traced under
    ``commands.<command>`` through the dispatch table the CLI uses.
    """
    mods = {name: importlib.import_module(f"becmemory.{name}")
            for name in MODULES}
    package = importlib.import_module("becmemory")
    wrapped = {}
    for short, mod in mods.items():
        if short == "commands":
            continue
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            if (isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                    and name not in UNTRACED):
                wrapped[id(obj)] = tracer.wrap(name, obj, AFTER.get(name))
        for attr in FOREIGN.get(short, ()):
            obj = getattr(mod, attr)
            name = f"{short}.{attr}"
            wrapped[id(obj)] = tracer.wrap(name, obj, AFTER.get(name))
    for mod in (package, *mods.values()):
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
    table = mods["commands"].COMMANDS
    for command, fn in table.items():
        table[command] = tracer.wrap(f"commands.{command}", fn)
    mods["tomography"].warnings = _CountingWarnings(
        tracer.counters, "tomography.structure_warnings")
    return mods


# Per-layer quantities one traced process reports; functions are named
# "<module>.<function>", module totals "<module>.busy_s".
CALLS = ("efficiency.transverse_average_eta", "efficiency.quad",
         "efficiency.eta_total", "eit.susceptibility", "memory.sample_shots",
         "tomography.process_tomography", "fitting.fit_damped_sinusoid")
BUSY = ("config.load_config", "csvio.write_table",
        "efficiency.transverse_average_eta", "efficiency.eta_total",
        "efficiency.optimize_eta", "fitting.fit_damped_sinusoid",
        "fitting.fit_gaussian_decay")
LAYERS = ("cli", "eit", "memory", "tomography")
COUNTERS = ("csvio.bytes_written", "memory.shots",
            "tomography.structure_warnings", "fitting.least_squares.nfev",
            "fitting.fits", "fitting.converged")


def layer_totals(tracer):
    """Summed per-layer quantities of everything ``tracer`` recorded.

    ``<module>.busy_s`` is the self time of all spans of that module, i.e.
    the time spent in the layer's own code and not in another traced layer.
    ``fitting.prefit_s`` is the sinusoid fit's busy time minus the
    ``least_squares`` calls inside it: the initial frequency scan.
    """
    spans = tracer.spans
    summary = summarize(spans)

    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    totals = {name: tracer.counters.get(name, 0) for name in COUNTERS}
    for name in CALLS:
        totals[f"{name}.calls"] = get(name, "calls")
    for name in BUSY:
        totals[f"{name}.busy_s"] = get(name, "busy")
    for layer in LAYERS:
        totals[f"{layer}.busy_s"] = sum(
            entry["self"] for name, entry in summary.items()
            if name.split(".")[0] == layer)
    for command in COMMAND_NAMES:
        totals[f"commands.{command}.self_s"] = get(f"commands.{command}",
                                                   "self")
    totals["fitting.prefit_s"] = get("fitting.fit_damped_sinusoid", "busy") \
        - time_inside(spans, "fitting.least_squares",
                      "fitting.fit_damped_sinusoid")
    return totals
