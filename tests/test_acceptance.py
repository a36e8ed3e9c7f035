"""Acceptance suite: one test per quantitative criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion with its runtime.  Every tolerance is pinned here; the criteria
cover derived optical constants, the efficiency-versus-power curve, Faraday
rotation and dephasing figures, the recoil lifetime, oracle equivalences of
the numerical methods, tomography round trips and fit round trips.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.optimize import minimize_scalar

from becmemory.config import RunConfig
from becmemory.constants import SPEED_OF_LIGHT
from becmemory.commands import cmd_fig7
from becmemory.efficiency import (PulseParams, _eta_on_depth, eta_comp,
                                  eta_trans, eta_total, recoil_sigma_eta,
                                  transverse_average_eta)
from becmemory.eit import (ControlField, MediumParams, chi0, group_index,
                           im_chi_maxima, optical_depth, pulse_delay,
                           susceptibility, transparency_width)
from becmemory.fitting import (DataSeries, fit_damped_sinusoid,
                               fit_gaussian_decay, fit_scaled_model)
from becmemory.memory import (MemoryParams, NoiseModel,
                              average_process_fidelity, damping_factor,
                              faraday_frequency, memory_mueller,
                              sample_shots, sigma_alpha_from_noise)
from becmemory.polarization import PoincareVector
from becmemory.tomography import (canonical_inputs, extract_memory_params,
                                  process_tomography)

from test_tomography import outputs_for

TWO_PI = 2.0 * math.pi
GAMMA = 1.0 / 26e-9
OMEGA_REF = TWO_PI * 15e6


def reference_medium() -> MediumParams:
    return MediumParams(atom_number=1.2e6, r_x=7e-6, r_y=25e-6, r_z=25e-6,
                        gamma_total=GAMMA, branching_ratio=1.0 / 12.0,
                        lambda_p=795e-9)


def report(number: int, text: str, started: float):
    elapsed = time.perf_counter() - started
    print(f"\n[acceptance {number}] PASS ({elapsed:.2f} s): {text}")


def test_criterion_1_derived_constants():
    started = time.perf_counter()
    medium = reference_medium()
    d_p = optical_depth(medium)
    assert abs(d_p - 127.0) <= 13.0
    chi0_value = chi0(OMEGA_REF, medium, medium.peak_density)
    assert abs(chi0_value - 0.5) <= 0.06
    n_gr = group_index(OMEGA_REF, medium.peak_density, medium)
    assert abs(n_gr - 5e6) <= 0.2 * 5e6
    tau_d = pulse_delay(OMEGA_REF, d_p, GAMMA)
    assert abs(tau_d - 550e-9) <= 0.1 * 550e-9
    width = transparency_width(OMEGA_REF, GAMMA, d_p)
    assert abs(width - TWO_PI * 3.3e6) <= TWO_PI * 0.2e6
    report(1, f"d_p = {d_p:.1f} (127±13), chi0 = {chi0_value:.3f} "
           f"(0.5±0.06), n_gr = {n_gr:.3g} (5e6±20%), tau_d = "
           f"{tau_d * 1e9:.0f} ns (550±10%), width = 2 pi x "
           f"{width / TWO_PI / 1e6:.2f} MHz (3.3±0.2)", started)


def test_criterion_2_efficiency_curve_peak():
    started = time.perf_counter()
    cfg = RunConfig.from_mapping({"fig7.n_points": 221})
    table = cmd_fig7(cfg)
    omega = np.array([row[0] for row in table.rows])
    avg = np.array([row[4] for row in table.rows])
    k = int(np.argmax(avg))
    assert abs(avg[k] - 0.60) <= 0.03
    assert abs(omega[k] - 15.0) <= 2.0
    report(2, f"transverse-averaged efficiency peaks at {avg[k]:.3f} "
           f"(0.60±0.03) at 2 pi x {omega[k]:.1f} MHz (15±2)", started)


def test_criterion_3_faraday_and_dephasing():
    started = time.perf_counter()
    nu_f = faraday_frequency(0.14) / TWO_PI
    assert abs(nu_f - 0.20e6) <= 0.005e6
    s2mg = sigma_alpha_from_noise(2e-3)
    assert abs(s2mg - 0.057e-3) <= 0.003e-3
    s01mg = sigma_alpha_from_noise(1e-4)
    assert 1.0e-3 <= s01mg <= 1.2e-3
    avg_f = average_process_fidelity(damping_factor(800e-6, 1.0e-3))
    assert abs(avg_f - 0.91) <= 0.02
    report(3, f"omega_F(0.14 G) = 2 pi x {nu_f / 1e6:.3f} MHz, "
           f"sigma_alpha(2 mG) = {s2mg * 1e3:.4f} ms, sigma_alpha(0.1 mG) "
           f"= {s01mg * 1e3:.3f} ms, <F>(800 us) = {avg_f:.3f}", started)


def test_criterion_4_recoil_lifetime():
    started = time.perf_counter()
    sigma = recoil_sigma_eta(8e-6, 795e-9)
    assert abs(sigma - 0.98e-3) <= 0.02e-3
    # the measured 0.48 ms is about half the model value and is used only
    # as a fit-generator parameter, never as a model output
    assert sigma / 0.48e-3 > 1.8
    report(4, f"recoil lifetime sigma_eta = {sigma * 1e3:.3f} ms "
           f"(0.98±0.02); measured 0.48 ms stays a fit target only",
           started)


def test_criterion_5_oracle_equivalences():
    started = time.perf_counter()
    medium = reference_medium().rescaled_to_depth(127.0)
    pulse = PulseParams(tau_p=94e-9, t0=230e-9, waist=8e-6)

    # compression factor vs direct quadrature of the Gaussian envelope
    worst_comp = 0.0
    for tau_d in (0.0, 150e-9, 550e-9, 2e-6):
        density = lambda t: math.exp(-t**2 / (2 * pulse.tau_p**2)) \
            / (pulse.tau_p * math.sqrt(2 * math.pi))
        oracle, _ = quad(density, pulse.t0 - tau_d, pulse.t0,
                         epsabs=1e-15, epsrel=1e-13)
        worst_comp = max(worst_comp,
                         abs(eta_comp(pulse.t0, pulse.tau_p, tau_d) - oracle))
    assert worst_comp <= 1e-10

    # transmission factor vs spectral-overlap oracle
    worst_trans = 0.0
    for om_mhz, d_p in ((15.0, 127.0), (25.0, 60.0)):
        omega_c = TWO_PI * om_mhz * 1e6
        width = omega_c**2 / (GAMMA * math.sqrt(d_p))
        lim = 12.0 / pulse.tau_p
        spectrum = lambda d: math.exp(-2.0 * d**2 * pulse.tau_p**2)
        through = lambda d: spectrum(d) * math.exp(
            -d_p * (2.0 * GAMMA * d / omega_c**2)**2)
        num, _ = quad(through, -lim, lim, epsabs=1e-30, epsrel=1e-13)
        den, _ = quad(spectrum, -lim, lim, epsabs=1e-30, epsrel=1e-13)
        worst_trans = max(worst_trans,
                          abs(eta_trans(pulse.tau_p, width) / (num / den)
                              - 1.0))
    assert worst_trans <= 1e-6

    # ensemble damping from 1e5 unitary shots vs exp(-sigma_phi^2/2)
    t_store, sigma_b = 2.5e-4, 2e-4
    noise = NoiseModel(1.0 / 7.0, sigma_b)
    shots = sample_shots(PoincareVector(1, 0, 0), t_store, 0.0, 1.0, noise,
                         100000, seed=424242)
    sigma_phi = faraday_frequency(sigma_b) * t_store
    phi_bar = faraday_frequency(noise.mean_bz) * t_store
    expected = memory_mueller(MemoryParams(
        1.0, math.exp(-sigma_phi**2 / 2), phi_bar)).m @ [1.0, 1.0, 0.0, 0.0]
    mean = shots.mean(axis=0)
    se = shots.std(axis=0, ddof=1) / math.sqrt(len(shots))
    pulls = [abs(mean[i] - expected[i]) / se[i] for i in (1, 2)]
    assert max(pulls) < 5.0

    # transverse average: analytic angular reduction vs 2-D quadrature
    omega = OMEGA_REF
    w = pulse.waist

    def integrand(y, x):
        d_p = optical_depth(medium, x, y)
        transit = medium.chord_length(x, y) / SPEED_OF_LIGHT
        eta = float(_eta_on_depth(d_p, omega, pulse.t0, pulse.tau_p, GAMMA,
                                  transit))
        return 2.0 / (math.pi * w**2) * math.exp(
            -2.0 * (x * x + y * y) / w**2) * eta

    quadrant, _ = dblquad(
        integrand, 0.0, medium.r_x, 0.0,
        lambda x: medium.r_y * math.sqrt(max(1.0 - (x / medium.r_x)**2,
                                             0.0)),
        epsabs=1e-12, epsrel=1e-8)
    radial = transverse_average_eta(omega, pulse, medium)
    assert abs(4.0 * quadrant / radial - 1.0) <= 1e-4

    # absorption maxima: closed form vs numerical maximization
    worst_max = 0.0
    for delta_c in (0.0, TWO_PI * 70e6):
        field = ControlField(TWO_PI * 20e6, delta_c)
        for root in im_chi_maxima(field):
            found = minimize_scalar(
                lambda d: -susceptibility(d, field, 0.5, GAMMA).im,
                bracket=(root - abs(root) * 1e-3 - 1e3, root,
                         root + abs(root) * 1e-3 + 1e3),
                method="brent", options={"xtol": 1e-12})
            worst_max = max(worst_max, abs(found.x / root - 1.0))
    assert worst_max <= 1e-6

    # algebraic identity tau_d x width = sqrt(d_p)
    rng = np.random.default_rng(5)
    for _ in range(100):
        om = TWO_PI * rng.uniform(2, 60) * 1e6
        d_p = rng.uniform(0.5, 300)
        product = pulse_delay(om, d_p, GAMMA) \
            * transparency_width(om, GAMMA, d_p)
        assert product == pytest.approx(math.sqrt(d_p), rel=5e-15)

    # scaling invariance of the total efficiency
    worst_scale = 0.0
    for s in (0.5, 2.0, 5.0):
        for om in TWO_PI * np.array([6e6, 15e6, 40e6]):
            for t0 in (50e-9, 230e-9, 700e-9):
                ref = eta_total(om, PulseParams(94e-9, t0, waist=8e-6),
                                medium, include_transit=False).eta_total
                mapped = eta_total(
                    om / math.sqrt(s),
                    PulseParams(s * 94e-9, s * t0, waist=8e-6),
                    medium, include_transit=False).eta_total
                worst_scale = max(worst_scale, abs(mapped - ref))
    assert worst_scale <= 1e-9

    report(5, "eta_comp vs quadrature <= 1e-10 "
           f"(worst {worst_comp:.1e}); eta_trans vs spectral overlap <= "
           f"1e-6 (worst {worst_trans:.1e}); 1e5-shot ensemble within 5 SE "
           f"(worst pull {max(pulls):.2f}); transverse average vs 2-D "
           f"quadrature <= 1e-4; absorption maxima <= 1e-6 (worst "
           f"{worst_max:.1e}); delay-width identity at machine precision; "
           f"scaling invariance <= 1e-9 (worst {worst_scale:.1e})", started)


def test_criterion_6_tomography_round_trips():
    started = time.perf_counter()
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(25):
        m_true = rng.normal(size=(4, 4))
        recovered = process_tomography(canonical_inputs(),
                                       outputs_for(m_true)).m
        worst = max(worst, float(np.max(np.abs(recovered - m_true))))
    assert worst <= 1e-12

    for eta in (0.25, 0.8):
        for alpha in (0.3, 1.0):
            for phi in (-1.0, 0.0, 2.2):
                params, residual = extract_memory_params(
                    memory_mueller(MemoryParams(eta, alpha, phi)))
                assert params.eta == pytest.approx(eta, abs=1e-14)
                assert params.alpha == pytest.approx(alpha, abs=1e-14)
                assert params.phi == pytest.approx(phi, abs=1e-14)
                assert residual <= 1e-14

    # noiseless end-to-end pipeline at alpha = 1 gives exactly unit fidelity
    from becmemory.commands import cmd_tomography
    cfg = RunConfig.from_mapping({"noise.preset": "custom",
                                  "noise.sigma_b_mg": 0.0,
                                  "detector.relative_sigma": 0.0})
    table = cmd_tomography(cfg)
    fidelities = {row[8] for row in table.rows}
    assert fidelities == {1.0}

    # detector noise produces a small, finite fidelity spread (qualitative)
    noisy = RunConfig.from_mapping({"tomography.repeats": 200})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        noisy_table = cmd_tomography(noisy)
    values = np.array(sorted({row[8] for row in noisy_table.rows}))
    spread = values.std(ddof=1)
    assert 0.0 < spread < 0.05
    report(6, f"exact M recovery (worst {worst:.1e} <= 1e-12); structured "
           "extraction exact; noiseless end-to-end <F> = 1.0 exactly; "
           f"detector-noise fidelity spread {spread:.4f} (qualitative)",
           started)


def test_criterion_7_fit_round_trips():
    started = time.perf_counter()
    x = np.concatenate([np.arange(s, s + 25.0 + 0.125, 0.25)
                        for s in (0.0, 495.0, 980.0, 2380.0)]) * 1e-6
    truth = {"amplitude": 1.0, "omega_f": TWO_PI * 0.20e6, "phi0": 0.3,
             "sigma_alpha": 1.1e-3}
    y = truth["amplitude"] * np.exp(-x**2 / (2 * truth["sigma_alpha"]**2)) \
        * np.cos(truth["omega_f"] * x - truth["phi0"])
    fit = fit_damped_sinusoid(DataSeries(x, y))
    for name, value in truth.items():
        assert fit.params[name] == pytest.approx(value, rel=1e-6)

    undamped = fit_damped_sinusoid(
        DataSeries(x, 1.02 * np.cos(truth["omega_f"] * x - 0.3)),
        undamped=True)
    assert undamped.params["amplitude"] == pytest.approx(1.02, rel=1e-6)

    for sigma in (0.48e-3, 0.06e-3):
        xg = np.linspace(0, 2.2 * sigma, 40)
        fitted = fit_gaussian_decay(
            DataSeries(xg, 0.9 * np.exp(-xg**2 / (2 * sigma**2))))
        assert fitted.params["sigma"] == pytest.approx(sigma, rel=1e-6)

    from scipy.interpolate import PchipInterpolator
    ref_x = np.linspace(5.0, 60.0, 120)
    ref_y = 0.6 * np.exp(-((ref_x - 15.0) / 9.0)**2) + 0.02
    curve = PchipInterpolator(ref_x, ref_y)
    xd = np.linspace(6.0, 28.0, 45)
    scaled = fit_scaled_model(DataSeries(xd, 0.5 * curve(2.0 * xd)),
                              DataSeries(ref_x, ref_y))
    assert scaled.params["s_eta"] == pytest.approx(0.5, rel=1e-6)
    assert scaled.params["s_omega"] == pytest.approx(2.0, rel=1e-6)

    # Monte-Carlo per-shot traces: 25 repetitions, averaged damping time
    noise = NoiseModel.from_preset("line-synced", mean_bz=1.0 / 7.0)
    injected = sigma_alpha_from_noise(noise.sigma_b)
    u = PoincareVector(1.0, 0.0, 0.0)
    omega_unit = faraday_frequency(1.0)
    fitted_sigmas = []
    for rep in range(25):
        shot_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=777, spawn_key=(rep,)))
        bz = shot_rng.normal(noise.mean_bz, noise.sigma_b, len(x))
        s1 = np.cos(omega_unit * bz * x)
        mc = fit_damped_sinusoid(DataSeries(x, s1))
        assert mc.converged
        fitted_sigmas.append(mc.params["sigma_alpha"])
    mean_sigma = float(np.mean(fitted_sigmas))
    assert abs(mean_sigma - injected) <= 0.2 * injected

    report(7, "noiseless round trips <= 1e-6 for all three fit shapes; "
           f"Monte-Carlo damping time {mean_sigma * 1e3:.3f} ms vs injected "
           f"{injected * 1e3:.3f} ms (within ±20%)", started)


def test_criterion_8_measured_points_are_generators_only():
    started = time.perf_counter()
    # measured-style lifetimes enter only as generator parameters of
    # synthetic datasets, never as model predictions
    cfg = RunConfig.from_mapping({})
    assert cfg.raw["fig5.sigma_eta_fit_ms"] == 0.48
    model_sigma = recoil_sigma_eta(cfg.pulse.waist, cfg.medium.lambda_p)
    assert abs(model_sigma - 0.48e-3) > 0.4e-3
    report(8, "measured decay constants (0.48 ms etc.) appear only as "
           "synthetic-data generator parameters, not as model outputs",
           started)
