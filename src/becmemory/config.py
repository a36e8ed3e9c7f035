"""Flat key-value run configuration.

Config files are plain text, one ``key = value`` per line, ``#`` comments.
Keys are namespaced and carry their unit in the name (MHz for ordinary
frequencies, ns/us/ms for times, G/mG for fields, um for lengths); all
quantities are converted to SI/angular units when the typed RunConfig is
built.  Defaults reproduce the reference experiment.  SCHEMA declares every
key once, with its default and allowed range; each value from a file,
--set, --preset, --seed or a typed mapping is parsed and checked there
once, in order, so the commands read typed, in-range values.
"""

import math
from dataclasses import dataclass

from .eit import ControlField, MediumParams
from .efficiency import PulseParams
from .memory import DEFAULT_MEAN_BZ, NOISE_PRESETS, NoiseModel


class ConfigError(Exception):
    """Invalid configuration file, key or value."""


# Value rules: (text for error messages, predicate).
POSITIVE = ("> 0", lambda v: v > 0)
NON_NEGATIVE = (">= 0", lambda v: v >= 0)
FRACTION = ("in [0, 1]", lambda v: 0 <= v <= 1)
POSITIVE_FRACTION = ("in (0, 1]", lambda v: 0 < v <= 1)


# Array lengths (size keys) up to 2**40 keep every array's byte count in
# numpy's index range; no host can allocate 2**40 float64 (8 TiB) anyway.
SIZE_BITS = 40


def _size(n: int, bits: int = SIZE_BITS):
    return (f"in [{n}, 2**{bits}]", lambda v: n <= v <= 2**bits)


def _each(rule):
    """Rule for a comma-separated list: non-empty, each entry obeys rule."""
    text, ok = rule

    def check(value: str) -> bool:
        try:
            values = parse_float_list(value)
        except ValueError:
            return False
        return bool(values) and all(math.isfinite(v) and ok(v)
                                    for v in values)
    return (f"a non-empty list of numbers, each {text}", check)


NOISE_PRESET = (f"one of {', '.join(sorted(NOISE_PRESETS))} or custom",
                lambda v: v in NOISE_PRESETS or v == "custom")

# key -> (default, rule or None).  The default's type is the key's type;
# float keys also reject nan and inf.  Cross-key rules are in from_mapping.
SCHEMA = {
    # condensate and probe transition
    "medium.atom_number": (1.2e6, POSITIVE),
    "medium.radius_x_um": (7.0, POSITIVE),
    "medium.radius_y_um": (25.0, POSITIVE),
    "medium.radius_z_um": (25.0, POSITIVE),
    "medium.gamma_inv_ns": (26.0, POSITIVE),    # lifetime 1/Gamma
    "medium.branching_ratio": (1.0 / 12.0, POSITIVE_FRACTION),
    "medium.lambda_p_nm": (795.0, POSITIVE),
    # >0: rescale the atom number so the on-axis optical depth hits this
    # value before generating figures; <= 0 disables the rescaling.
    "medium.dp_target": (127.0, None),
    # control beam
    "control.omega_c_mhz": (20.0, POSITIVE),
    "control.delta_c_mhz": (0.0, None),
    # probe pulse
    "pulse.tau_p_ns": (94.0, POSITIVE),
    "pulse.t0_ns": (230.0, None),
    "pulse.waist_um": (8.0, POSITIVE),
    # magnetic-field noise; sigma_b_mg < 0 means "use the preset value"
    "noise.preset": ("line-synced", NOISE_PRESET),
    "noise.mean_bz_g": (DEFAULT_MEAN_BZ, None),
    "noise.sigma_b_mg": (-1.0, None),
    # synthetic detector statistics
    "detector.relative_sigma": (0.02, NON_NEGATIVE),
    "detector.background": (0.0, NON_NEGATIVE),
    # include the slow-light delay in the Faraday rotation angle
    "rotation.include_pulse_delay": (False, None),
    # recorded detection-path transmissions, applied only when enabled
    "attenuation.enabled": (False, None),
    "attenuation.fiber": (0.66, FRACTION),
    "attenuation.mode_resonant": (0.88, FRACTION),
    "attenuation.mode_detuned": (0.80, FRACTION),
    "attenuation.cavity": (0.8, FRACTION),
    "storage.t_store_us": (1.0, NON_NEGATIVE),
    "seed": (12345, NON_NEGATIVE),
    "output.path": ("", None),
    # per-command sweep grids
    "fig3.window_starts_us": ("0,495,980,2380", _each(NON_NEGATIVE)),
    "fig3.window_length_us": (25.0, POSITIVE),
    "fig3.step_us": (0.25, POSITIVE),
    "fig3.phi0_rad": (0.0, None),
    "fig4.n_points": (25, _size(3)),
    "fig4.shots": (400, _size(2)),
    "fig4.t_max_sigma_factor": (2.2, POSITIVE),
    "fig5.t_max_ms": (1.5, POSITIVE),
    "fig5.n_points": (121, _size(2)),
    "fig5.eta0": (1.0, FRACTION),
    "fig5.sigma_eta_fit_ms": (0.48, POSITIVE),
    "fig6.t_max_ms": (0.15, POSITIVE),
    "fig6.n_points": (121, _size(2)),
    "fig6.condensate_fractions": ("0.3,0.6,0.9", _each(FRACTION)),
    "fig6.temperature_uk": (1.0, POSITIVE),
    "fig7.omega_min_mhz": (5.0, POSITIVE),
    "fig7.omega_max_mhz": (60.0, None),         # > fig7.omega_min_mhz
    "fig7.n_points": (221, _size(2)),
    "fig8.span_resonant_mhz": (15.0, POSITIVE),
    "fig8.span_detuned_mhz": (2.0, POSITIVE),
    "fig8.delta_c_detuned_mhz": (70.0, None),
    "fig8.n_points": (601, _size(3)),
    "tomography.eta0": (0.5, POSITIVE_FRACTION),
    "tomography.repeats": (1, _size(1)),
    "tomography.shots": (0, _size(0)),          # 0: ensemble-exact states
    "optimize.omega_min_mhz": (1.0, POSITIVE),
    "optimize.omega_max_mhz": (100.0, None),    # >= optimize.omega_min_mhz
    "optimize.grid": (200, _size(2, SIZE_BITS // 2)),   # a grid x grid scan
    "optimize.averaged": (True, None),
}

_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}
_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number"}


def parse_value(key: str, value):
    """Typed, checked value of one key, from its text or a typed value."""
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    default, rule = SCHEMA[key]
    kind = type(default)
    text = str(value).strip()
    try:
        typed = _BOOLEANS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise ConfigError(f"expected {_TYPE_NAMES[kind]} for {key!r}, "
                          f"got {text!r}") from None
    if kind is float and not math.isfinite(typed):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    if rule is not None and not rule[1](typed):
        raise ConfigError(f"{key} must be {rule[0]}, got {text!r}")
    return typed


def parse_config_text(text: str) -> list[tuple[str, str]]:
    """(key, value) of each ``key = value`` line in order; '#' comments."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {line!r}")
        key, value = line.split("=", 1)
        entries.append((key.strip(), value.strip()))
    return entries


MHZ = 2.0 * math.pi * 1e6      # ordinary MHz -> angular rad/s


@dataclass(frozen=True)
class RunConfig:
    """Unit-converted model objects of a configuration; ``raw`` holds the
    typed, checked value of every key."""

    medium: MediumParams   # atom number rescaled to a dp_target > 0
    control: ControlField
    pulse: PulseParams
    noise: NoiseModel
    raw: dict

    def attenuation_factor(self) -> float:
        """Overall detection-path transmission, 1.0 unless enabled."""
        if not self.raw["attenuation.enabled"]:
            return 1.0
        mode = self.raw["attenuation.mode_resonant"] \
            if self.control.delta_c == 0 \
            else self.raw["attenuation.mode_detuned"]
        return self.raw["attenuation.fiber"] * mode \
            * self.raw["attenuation.cavity"]

    @classmethod
    def from_mapping(cls, mapping: dict | list) -> "RunConfig":
        """Check each value of ``mapping``, a dict or (key, value) pairs,
        once and in order against SCHEMA, a later value replacing an earlier
        one, and build the typed view; missing keys take their defaults."""
        raw = {key: default for key, (default, _) in SCHEMA.items()}
        items = mapping.items() if isinstance(mapping, dict) else mapping
        for key, value in items:
            raw[key] = parse_value(key, value)
        preset = raw["noise.preset"]
        sigma_mg = raw["noise.sigma_b_mg"]
        if preset != "custom" and sigma_mg >= 0:
            raise ConfigError("noise.sigma_b_mg is set by the preset; use "
                              "noise.preset = custom to choose it explicitly")
        if preset == "custom" and sigma_mg < 0:
            raise ConfigError(
                "noise.preset = custom requires noise.sigma_b_mg")
        if raw["fig3.window_length_us"] > raw["fig3.step_us"] * 2**SIZE_BITS:
            raise ConfigError(f"fig3.window_length_us / fig3.step_us, the "
                              f"samples per window, must be <= 2**{SIZE_BITS}")
        if raw["fig7.omega_max_mhz"] <= raw["fig7.omega_min_mhz"]:
            raise ConfigError(
                "fig7.omega_max_mhz must be > fig7.omega_min_mhz")
        if raw["optimize.omega_max_mhz"] < raw["optimize.omega_min_mhz"]:
            raise ConfigError("optimize.omega_max_mhz must be >= "
                              "optimize.omega_min_mhz")
        fig6_columns(raw["fig6.condensate_fractions"])  # no column twice
        try:
            medium = MediumParams(
                atom_number=raw["medium.atom_number"],
                r_x=raw["medium.radius_x_um"] * 1e-6,
                r_y=raw["medium.radius_y_um"] * 1e-6,
                r_z=raw["medium.radius_z_um"] * 1e-6,
                gamma_total=1.0 / (raw["medium.gamma_inv_ns"] * 1e-9),
                branching_ratio=raw["medium.branching_ratio"],
                lambda_p=raw["medium.lambda_p_nm"] * 1e-9,
            )
            control = ControlField(raw["control.omega_c_mhz"] * MHZ,
                                   raw["control.delta_c_mhz"] * MHZ)
            pulse = PulseParams(tau_p=raw["pulse.tau_p_ns"] * 1e-9,
                                t0=raw["pulse.t0_ns"] * 1e-9,
                                waist=raw["pulse.waist_um"] * 1e-6)
            # "custom", the one preset NOISE_PRESETS lacks, takes sigma_mg
            noise = NoiseModel(raw["noise.mean_bz_g"],
                               NOISE_PRESETS.get(preset, sigma_mg * 1e-3))
        except (ValueError, ZeroDivisionError) as exc:
            # a product of in-range keys can still underflow to 0
            raise ConfigError(str(exc)) from exc
        dp_target = raw["medium.dp_target"]
        try:
            if dp_target > 0:
                medium = medium.rescaled_to_depth(dp_target)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot rescale the atom number to "
                              f"medium.dp_target = {dp_target:g}: {exc}") \
                from exc
        return cls(medium=medium, control=control, pulse=pulse, noise=noise,
                   raw=raw)


def load_config(path: str | None = None, overrides: list[str] | None = None,
                preset: str | None = None,
                seed: int | None = None) -> RunConfig:
    """Build a RunConfig from an optional file's entries, then the KEY=VALUE
    overrides, then ``preset`` (noise.preset) and ``seed``, in that order."""
    entries = []
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                entries = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") \
                from exc
    for item in overrides or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        entries.append((key.strip(), value))
    if preset is not None:
        entries.append(("noise.preset", preset))
    if seed is not None:
        entries.append(("seed", seed))
    return RunConfig.from_mapping(entries)


def parse_float_list(text: str) -> list[float]:
    """Comma-separated floats used by list-valued config keys."""
    return [float(part) for part in text.split(",") if part.strip()]


def fig6_columns(text: str) -> list[str]:
    """fig6's column names; ConfigError if two fractions name one column."""
    names = [f"eta_fc_{fc:g}" for fc in parse_float_list(text)]
    if len(set(names)) < len(names):
        raise ConfigError("fig6.condensate_fractions must differ to 6 "
                          "significant digits, as each names a column, "
                          f"got {text!r}")
    return names
