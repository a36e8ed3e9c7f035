"""Workload definitions and the seeded input generator.

Each workload runs a fixed cycle of operations; the seed chooses only the
parameters of each operation, never which operation runs, so the mix of
commands is the same on every seed and its medians stay comparable.

CLI parameters come from a finite table: ``SETS`` parameter sets per
command variant, each drawn once from a fixed per-variant stream.  The seed
picks the order in which a run walks through them.  The table is finite so
that every set has a recorded output in ``reference.json`` (made by
``make_reference.py`` at the commit that defined the benchmark) against
which a run's CSV is compared.

Fit traces come from a finite table in the same way: ``FIT_SETS`` traces
per fit workload, each drawn once, walked in an order the seed picks.  Each
trace's fitted omega_F at that commit is recorded in ``reference.json`` too.
"""

import random

SETS = 12
REF_MEAN_BZ = 1.0 / 7.0         # G, hold field of the reference experiment

WORKLOADS = {
    "cli-short": ("fig3", "fig4", "fig5", "fig6", "fig8", "tomography"),
    "cli-efficiency": ("fig7", "optimize", "optimize-on-axis"),
    "fit-lattice": ("fit",),
    "fit-irregular": ("fit",),
}
CLI_WORKLOADS = ("cli-short", "cli-efficiency")

# Jitter of each sample time, as a fraction of the 0.25 us lattice step,
# drawn uniformly in [0, JITTER).  Zero keeps the fig3 lattice.
JITTER = {"fit-lattice": 0.0, "fit-irregular": 0.6}

# fig3's four 25 us windows sampled every 0.25 us.
FIT_WINDOW_STARTS_US = (0.0, 495.0, 980.0, 2380.0)
FIT_WINDOW_LENGTH_US = 25.0
FIT_STEP_US = 0.25
FIT_SHOTS_PER_POINT = 16
FIT_SETS = {"fit-lattice": 96, "fit-irregular": 64}


def _u(rng, lo, hi):
    return f"{rng.uniform(lo, hi):.6g}"


def _draw(variant, rng):
    """(command, overrides, cli seed or None) for one parameter set."""
    seed = rng.randrange(1, 2**31)
    bz = _u(rng, 0.9 * REF_MEAN_BZ, 1.1 * REF_MEAN_BZ)
    if variant == "fig3":
        return "fig3", {"noise.mean_bz_g": bz,
                        "fig3.step_us": rng.choice(("0.2", "0.25")),
                        "fig3.window_length_us": rng.choice(("20", "25",
                                                             "30"))}, seed
    if variant == "fig4":
        return "fig4", {"noise.mean_bz_g": bz,
                        "fig4.n_points": str(rng.randint(20, 25)),
                        "fig4.shots": str(rng.randint(300, 400))}, seed
    if variant == "fig5":
        return "fig5", {"fig5.n_points": str(rng.randint(101, 141)),
                        "fig5.t_max_ms": _u(rng, 1.2, 1.8),
                        "pulse.waist_um": _u(rng, 7.0, 9.0)}, None
    if variant == "fig6":
        return "fig6", {"fig6.n_points": str(rng.randint(101, 141)),
                        "fig6.t_max_ms": _u(rng, 0.12, 0.18),
                        "fig6.temperature_uk": _u(rng, 0.8, 1.2)}, None
    if variant == "fig8":
        return "fig8", {"fig8.n_points": str(rng.randint(501, 701)),
                        "control.omega_c_mhz": _u(rng, 17.0, 23.0),
                        "medium.dp_target": _u(rng, 115.0, 140.0)}, None
    if variant == "tomography":
        return "tomography", {
            "noise.mean_bz_g": bz,
            "storage.t_store_us": _u(rng, 0.5, 20.0),
            "tomography.shots": str(rng.randint(200, 400)),
            "tomography.repeats": str(rng.randint(3, 6))}, seed
    if variant == "fig7":
        return "fig7", {"pulse.tau_p_ns": _u(rng, 85.0, 105.0),
                        "medium.dp_target": _u(rng, 115.0, 140.0),
                        "fig7.n_points": str(rng.randint(201, 221))}, None
    if variant in ("optimize", "optimize-on-axis"):
        overrides = {"pulse.tau_p_ns": _u(rng, 85.0, 105.0),
                     "medium.dp_target": _u(rng, 115.0, 140.0),
                     "optimize.grid": str(rng.randint(190, 210))}
        if variant == "optimize-on-axis":
            overrides["optimize.averaged"] = "false"
        return "optimize", overrides, None
    raise ValueError(f"unknown variant {variant!r}")


def parameter_set(variant, index):
    """The ``index``-th parameter set of a CLI command variant."""
    command, overrides, seed = _draw(variant,
                                     random.Random(f"{variant}:{index}"))
    return {"variant": variant, "index": index, "command": command,
            "overrides": overrides, "seed": seed}


def cli_args(params, out_path):
    """Command line (after ``python -m becmemory.cli``) for one set."""
    args = [params["command"], "--out", out_path]
    if params["seed"] is not None:
        args += ["--seed", str(params["seed"])]
    for key, value in params["overrides"].items():
        args += ["--set", f"{key}={value}"]
    return args


def cli_operations(workload, seed):
    """Endless sequence of parameter sets for a CLI workload."""
    cycle = WORKLOADS[workload]
    orders = {v: random.Random(f"{seed}:{v}").sample(range(SETS), SETS)
              for v in cycle}
    k = 0
    while True:
        variant = cycle[k % len(cycle)]
        yield parameter_set(variant, orders[variant][(k // len(cycle))
                                                     % SETS])
        k += 1


def fit_parameter_set(workload, index):
    """The ``index``-th trace of a fit workload."""
    rng = random.Random(f"{workload}:{index}")
    return {"workload": workload, "index": index,
            "mean_bz": rng.uniform(0.9 * REF_MEAN_BZ, 1.1 * REF_MEAN_BZ),
            "sigma_b": rng.uniform(0.6e-4, 1.0e-4),
            "mc_seed": rng.randrange(1, 2**31),
            "jitter": JITTER[workload]}


def fit_operations(workload, seed):
    """Endless sequence of traces for a fit workload."""
    n = FIT_SETS[workload]
    order = random.Random(f"{seed}:{workload}").sample(range(n), n)
    k = 0
    while True:
        yield fit_parameter_set(workload, order[k % n])
        k += 1
