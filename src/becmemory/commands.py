"""Dataset synthesis behind the command-line subcommands.

Each command produces one CSV table reproducing a model curve or a synthetic
measurement run: Faraday-rotation traces, dephasing of the damping factor
for the three noise setups, efficiency decay during storage, the efficiency
versus control power including its transverse average, the probe
susceptibility, a full synthetic process tomography, and the 2-D efficiency
optimization.  fig4 and tomography draw each synthetic tomography of a
sweep from its own random streams and reconstruct the sweep as one stack.
Identical (config, seed) pairs yield byte-identical tables.
"""

from __future__ import annotations  # np.random annotations load nothing

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import efficiency as eff
from . import eit
from .config import RunConfig, fig6_columns, parse_float_list
from .fitting import DataSeries, fit_gaussian_decay
from .memory import (NOISE_PRESETS, MemoryParams, NoiseModel,
                     apply_detector_noise, average_process_fidelity,
                     damping_factor, faraday_frequency, memory_mueller,
                     rotation_angle, s1_trace, sample_shots,
                     sigma_alpha_from_noise)
from .polarization import PoincareVector, StokesVector, measure, poincare
from .tomography import (ANALYZERS, INPUT_LABELS, StructureWarning,
                         canonical_inputs, extract_memory_params,
                         process_tomography, state_tomography)


@dataclass
class Table:
    """One rectangular result table plus optional report text."""

    header: list[str]
    rows: list[tuple]
    extra_metadata: list[str] = field(default_factory=list)
    report: str | None = None


def _child_seed(cfg: RunConfig, *tags: int) -> np.random.SeedSequence:
    """Deterministic independent stream for one sub-task of a run."""
    return np.random.SeedSequence(entropy=cfg.raw["seed"], spawn_key=tags)


def _rotation_delay(cfg: RunConfig) -> float:
    """Slow-light delay entering the rotation angle (0 unless enabled)."""
    if not cfg.raw["rotation.include_pulse_delay"]:
        return 0.0
    medium = cfg.medium
    return eit.pulse_delay(cfg.control.omega_c, eit.optical_depth(medium),
                           medium.gamma_total)


def _tomography_sweep(cfg: RunConfig, t_store: np.ndarray, eta: float,
                      noise: NoiseModel, shots: int, tags: list[tuple]):
    """A 12-measurement tomography at each storage time t_store[j], drawn
    from tags[j]'s random streams and reconstructed as one stack; returns the
    (time, input, analyzer, port) readings, states, params and residuals."""
    tau_d = _rotation_delay(cfg)
    inputs = canonical_inputs()
    if shots == 0:
        alpha = damping_factor(t_store, sigma_alpha_from_noise(noise.sigma_b))
        phi = rotation_angle(t_store, tau_d, faraday_frequency(noise.mean_bz))
        columns = np.moveaxis(memory_mueller(MemoryParams(eta, alpha, phi)).m
                              @ inputs.as_array(), -2, 0)
    else:
        columns = np.array([[
            sample_shots(PoincareVector(*u), t, tau_d, eta, noise, shots,
                         _child_seed(cfg, *tag, k)).mean(axis=0)
            for k, u in enumerate(poincare(inputs).as_array().T)]
            for t, tag in zip(t_store, tags)]).transpose(2, 0, 1)
    states = StokesVector(*(columns * cfg.attenuation_factor()))
    ports = np.array([measure(states, basis) for basis in ANALYZERS.values()])
    readings = np.array([   # each time draws input-major, as (4, 3, 2)
        apply_detector_noise(
            per_time, np.random.default_rng(_child_seed(cfg, *tag, 7)),
            cfg.raw["detector.relative_sigma"], cfg.raw["detector.background"])
        for per_time, tag in zip(ports.transpose(2, 3, 0, 1), tags)])
    outputs = state_tomography(
        dict(zip(ANALYZERS, readings.transpose(2, 3, 0, 1)))).stokes
    return (readings, outputs,
            *extract_memory_params(process_tomography(inputs, outputs)))


def cmd_fig3(cfg: RunConfig) -> Table:
    """Faraday rotation of s1/s0 versus storage time, per-shot and ensemble."""
    starts = parse_float_list(cfg.raw["fig3.window_starts_us"])
    length = cfg.raw["fig3.window_length_us"]
    step = cfg.raw["fig3.step_us"]
    t_us = np.concatenate([np.arange(s, s + length + step / 2, step)
                           for s in starts])
    phi0 = cfg.raw["fig3.phi0_rad"]
    u_in = PoincareVector(math.cos(phi0), -math.sin(phi0), 0.0)
    tau_d = _rotation_delay(cfg)
    t_s = t_us * 1e-6
    model = s1_trace(t_s, sigma_alpha_from_noise(cfg.noise.sigma_b),
                     rotation_angle(t_s, tau_d,
                                    faraday_frequency(cfg.noise.mean_bz)),
                     phi0)
    shots = [sample_shots(u_in, t, tau_d, 1.0, cfg.noise, 1,
                          _child_seed(cfg, 3, i))[0]
             for i, t in enumerate(t_s)]
    return Table(
        header=["t_store_us", "s1_over_s0_shot", "s1_over_s0_model"],
        rows=list(zip(t_us, [s[1] / s[0] for s in shots], model)))


def cmd_fig4(cfg: RunConfig) -> Table:
    """Damping factor alpha versus storage time for the three noise setups."""
    n_points = cfg.raw["fig4.n_points"]
    shots = cfg.raw["fig4.shots"]
    factor = cfg.raw["fig4.t_max_sigma_factor"]
    rows, metadata = [], []
    # Shot noise makes reconstructions at strongly dephased times deviate
    # from the structured form; that is expected here and absorbed by the
    # Gaussian fit, so the structure warning (and only it) is suppressed
    # for this Monte-Carlo sweep.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StructureWarning)
        for p, preset in enumerate(NOISE_PRESETS):
            noise = NoiseModel.from_preset(preset, cfg.noise.mean_bz)
            sigma_alpha = sigma_alpha_from_noise(noise.sigma_b)
            t_grid = np.linspace(0.0, factor * sigma_alpha, n_points)
            alphas = _tomography_sweep(
                cfg, t_grid, 1.0, noise, shots,
                [(4, p, i) for i in range(n_points)])[2].alpha
            fit = fit_gaussian_decay(DataSeries(t_grid, alphas))
            if not fit.converged:
                raise RuntimeError(
                    f"Gaussian fit of alpha(t) failed for preset {preset!r}: "
                    f"{fit.message}")
            sig, amp = fit.params["sigma"], fit.params["amplitude"]
            metadata += [f"fit.{preset}.sigma_alpha_ms = {sig * 1e3:.6f}",
                         f"fit.{preset}.amplitude = {amp:.6f}"]
            rows += zip([preset] * n_points, t_grid * 1e3, alphas,
                        damping_factor(t_grid, sigma_alpha),
                        amp * damping_factor(t_grid, sig))
    return Table(
        header=["preset", "t_store_ms", "alpha_tomography", "alpha_model",
                "alpha_fit"],
        rows=rows, extra_metadata=metadata)


def cmd_fig5(cfg: RunConfig) -> Table:
    """Gaussian decay of the efficiency in a pure condensate."""
    n = cfg.raw["fig5.n_points"]
    t_max = cfg.raw["fig5.t_max_ms"] * 1e-3
    eta0 = cfg.raw["fig5.eta0"] * cfg.attenuation_factor()
    sigma_model = eff.recoil_sigma_eta(cfg.pulse.waist, cfg.medium.lambda_p)
    sigma_fit = cfg.raw["fig5.sigma_eta_fit_ms"] * 1e-3
    t = np.linspace(0.0, t_max, n)
    model = eff.eta_decay(t, eta0, sigma_model)
    fitted = eff.eta_decay(t, eta0, sigma_fit)
    return Table(
        header=["t_store_ms", "eta_recoil_model", "eta_measured_fit"],
        rows=list(zip(t * 1e3, model, fitted)),
        extra_metadata=[f"sigma_eta_recoil_ms = {sigma_model * 1e3:.6f}",
                        f"sigma_eta_fit_ms = {sigma_fit * 1e3:.6f}"])


def cmd_fig6(cfg: RunConfig) -> Table:
    """Bimodal efficiency decay for several condensate fractions."""
    n = cfg.raw["fig6.n_points"]
    t_max = cfg.raw["fig6.t_max_ms"] * 1e-3
    text = cfg.raw["fig6.condensate_fractions"]
    fractions = parse_float_list(text)
    temperature = cfg.raw["fig6.temperature_uk"] * 1e-6
    sigma_bec = eff.recoil_sigma_eta(cfg.pulse.waist, cfg.medium.lambda_p)
    thermal = eff.thermal_decay_time(temperature, cfg.medium.lambda_p,
                                     cfg.medium.lambda_p)
    t = np.linspace(0.0, t_max, n)
    curves = [eff.bimodal_eta(t, fc, sigma_bec, thermal) for fc in fractions]
    header = ["t_store_ms"] + fig6_columns(text)
    return Table(header=header, rows=list(zip(t * 1e3, *curves)),
                 extra_metadata=[f"thermal_decay_time_us = "
                                 f"{thermal * 1e6:.6f}",
                                 f"sigma_bec_ms = {sigma_bec * 1e3:.6f}"])


def cmd_fig7(cfg: RunConfig) -> Table:
    """Efficiency factors versus control Rabi frequency at fixed switch-off."""
    n = cfg.raw["fig7.n_points"]
    lo = cfg.raw["fig7.omega_min_mhz"]
    hi = cfg.raw["fig7.omega_max_mhz"]
    medium = cfg.medium
    factor = cfg.attenuation_factor()
    omegas_mhz = np.linspace(lo, hi, n)
    omegas = 2.0 * math.pi * omegas_mhz * 1e6
    result = eff.eta_total(omegas, cfg.pulse, medium)
    avg = eff.transverse_average_eta(omegas, cfg.pulse, medium)
    rows = list(zip(omegas_mhz, result.eta_comp * factor,
                    result.eta_trans * factor, result.eta_total * factor,
                    avg * factor))
    return Table(
        header=["omega_c_mhz", "eta_comp", "eta_trans", "eta_total",
                "eta_transverse_avg"],
        rows=rows)


def cmd_fig8(cfg: RunConfig) -> Table:
    """Susceptibility versus two-photon detuning, exact and expanded."""
    n = cfg.raw["fig8.n_points"]
    delta_c_det = cfg.raw["fig8.delta_c_detuned_mhz"]
    medium = cfg.medium
    omega_c = cfg.control.omega_c
    gamma = medium.gamma_total
    chi0_value = eit.chi0(omega_c, medium, medium.peak_density)
    columns = []
    for span, delta_c in ((cfg.raw["fig8.span_resonant_mhz"], 0.0),
                          (cfg.raw["fig8.span_detuned_mhz"], delta_c_det)):
        d_mhz = np.linspace(-span, span, n)
        d = 2.0 * math.pi * d_mhz * 1e6
        field = eit.ControlField(omega_c, 2.0 * math.pi * delta_c * 1e6)
        exact = eit.susceptibility(d, field, chi0_value, gamma)
        approx = eit.susceptibility_approx(d, omega_c, chi0_value, gamma)
        columns += [d_mhz, exact.re, exact.im, approx.re, approx.im]
    return Table(
        header=["delta2_resonant_mhz", "re_chi_resonant", "im_chi_resonant",
                "re_chi_approx_resonant", "im_chi_approx_resonant",
                "delta2_detuned_mhz", "re_chi_detuned", "im_chi_detuned",
                "re_chi_approx_detuned", "im_chi_approx_detuned"],
        rows=list(zip(*columns)),
        extra_metadata=[f"chi0 = {chi0_value:.9f}",
                        f"delta_c_detuned_mhz = {delta_c_det:g}"])


def cmd_tomography(cfg: RunConfig) -> Table:
    """Synthetic process tomography: 12 measurements, M, (eta, alpha, phi)."""
    repeats = cfg.raw["tomography.repeats"]
    shots = cfg.raw["tomography.shots"]
    t_store = cfg.raw["storage.t_store_us"] * 1e-6
    sigma_recoil = eff.recoil_sigma_eta(cfg.pulse.waist, cfg.medium.lambda_p)
    eta = cfg.raw["tomography.eta0"] \
        * float(eff.eta_decay(t_store, 1.0, sigma_recoil))
    cond = float(np.linalg.cond(canonical_inputs().as_array()))
    readings, _, params, residuals = _tomography_sweep(
        cfg, np.full(repeats, t_store), eta, cfg.noise, shots,
        [(12, rep) for rep in range(repeats)])
    fidelities = average_process_fidelity(params.alpha)
    rows = [(rep, label, key, *pair, *record, cond)
            for rep, (per_rep, *record) in enumerate(zip(
                readings.tolist(), params.eta, params.alpha, params.phi,
                fidelities, residuals))
            for label, per_input in zip(INPUT_LABELS, per_rep)
            for key, pair in zip(ANALYZERS, per_input)]
    metadata = [f"t_store_us = {t_store * 1e6:g}",
                f"eta_injected = {eta:.12g}"]
    if repeats > 1:
        std = fidelities.std(ddof=1)
        metadata += [f"avg_fidelity_mean = {fidelities.mean():.9f}",
                     f"avg_fidelity_std = {std:.3g}",
                     f"avg_fidelity_stderr = {std / math.sqrt(repeats):.3g}"]
    return Table(
        header=["repetition", "input", "basis", "i_plus", "i_minus", "eta",
                "alpha", "phi_rad", "avg_fidelity", "residual",
                "condition_number"],
        rows=rows, extra_metadata=metadata)


def cmd_optimize(cfg: RunConfig) -> Table:
    """2-D optimization of the efficiency over (omega_c, t0)."""
    lo = cfg.raw["optimize.omega_min_mhz"]
    hi = cfg.raw["optimize.omega_max_mhz"]
    grid = cfg.raw["optimize.grid"]
    averaged = cfg.raw["optimize.averaged"]
    medium = cfg.medium
    result = eff.optimize_eta(
        medium, cfg.pulse,
        omega_bounds=(2.0 * math.pi * lo * 1e6, 2.0 * math.pi * hi * 1e6),
        averaged=averaged, grid_shape=(grid, grid))
    d_p = eit.optical_depth(medium)
    gamma = medium.gamma_total
    tau_d = eit.pulse_delay(result.omega_c, d_p, gamma)
    width = eit.transparency_width(result.omega_c, gamma, d_p)
    cond = eit.check_compression_condition(tau_d, cfg.pulse.tau_p, d_p)
    om_mhz = result.omega_c / (2.0 * math.pi * 1e6)
    lines = [
        f"objective: {'transverse-averaged' if averaged else 'on-axis'} "
        f"write-read efficiency",
        f"optimal control Rabi frequency: {om_mhz:.4f} MHz",
        f"optimal switch-off time: {result.t0 * 1e9:.2f} ns",
        f"efficiency at optimum: {result.eta:.6f}",
        f"maximum on search boundary: {'yes' if result.on_boundary else 'no'}",
        f"on-axis optical depth: {d_p:.3f}",
        f"slow-light delay at optimum: {tau_d * 1e9:.2f} ns",
        f"transparency width at optimum: 2 pi x "
        f"{width / (2.0 * math.pi * 1e6):.4f} MHz",
        f"delay/pulse-width ratio: {cond.delay_ratio:.3f} "
        f"(sqrt(d_p) = {cond.sqrt_dp:.3f})",
        f"compressible: {cond.compressible}, low absorption: "
        f"{cond.low_absorption}",
    ]
    row = (om_mhz, result.t0 * 1e9, result.eta,
           "true" if result.on_boundary else "false", d_p, tau_d * 1e9,
           width / (2.0 * math.pi * 1e6), cond.delay_ratio, cond.sqrt_dp)
    return Table(
        header=["omega_c_mhz", "t0_ns", "eta", "on_boundary", "d_p_on_axis",
                "tau_d_ns", "transparency_width_mhz", "delay_ratio",
                "sqrt_dp"],
        rows=[row], report="\n".join(lines))


COMMANDS = {
    "fig3": cmd_fig3,
    "fig4": cmd_fig4,
    "fig5": cmd_fig5,
    "fig6": cmd_fig6,
    "fig7": cmd_fig7,
    "fig8": cmd_fig8,
    "tomography": cmd_tomography,
    "optimize": cmd_optimize,
}
