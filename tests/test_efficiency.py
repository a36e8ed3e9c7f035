import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from becmemory.constants import (BOLTZMANN, HBAR, RB87_MASS,
                                SPEED_OF_LIGHT)
from becmemory.efficiency import (REFINE_TOL, PulseParams, _eta_on_depth,
                                  _radial_weight, bimodal_eta, eta_comp,
                                  eta_decay, eta_total, eta_trans,
                                  optimize_eta, recoil_sigma_eta,
                                  thermal_decay_time, transverse_average_eta)
from becmemory.eit import MediumParams, optical_depth, pulse_delay

TWO_PI = 2.0 * math.pi
GAMMA = 1.0 / 26e-9


@pytest.fixture
def medium() -> MediumParams:
    raw = MediumParams(atom_number=1.2e6, r_x=7e-6, r_y=25e-6, r_z=25e-6,
                       gamma_total=GAMMA, branching_ratio=1.0 / 12.0,
                       lambda_p=795e-9)
    return raw.rescaled_to_depth(127.0)


@pytest.fixture
def pulse() -> PulseParams:
    return PulseParams(tau_p=94e-9, t0=230e-9, waist=8e-6)


class TestEtaComp:
    def test_reference_point(self):
        # quadrature oracle for these parameters froze 0.9924619069581897
        value = eta_comp(230e-9, 94e-9, 550e-9)
        assert value == pytest.approx(0.9924619069581897, rel=1e-12)

    def test_matches_gaussian_quadrature(self, rng):
        for _ in range(20):
            tau_p = rng.uniform(20, 300) * 1e-9
            t0 = rng.uniform(-100, 600) * 1e-9
            tau_d = rng.uniform(0, 900) * 1e-9
            transit = rng.uniform(0, 1) * 1e-12
            density = lambda t: math.exp(-t**2 / (2 * tau_p**2)) \
                / (tau_p * math.sqrt(2 * math.pi))
            oracle, _ = quad(density, t0 - tau_d - transit, t0,
                             epsabs=1e-15, epsrel=1e-13)
            assert abs(eta_comp(t0, tau_p, tau_d, transit) - oracle) < 1e-10

    def test_degenerate_window(self):
        assert eta_comp(0.0, 94e-9, 0.0) == 0.0

    def test_limits(self):
        # a very late switch-off misses the pulse entirely for finite delay
        assert eta_comp(1.0, 94e-9, 550e-9) == pytest.approx(0.0, abs=1e-12)
        # late switch-off with an enormous delay stores everything
        assert eta_comp(1e-5, 94e-9, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_range(self, rng):
        for _ in range(200):
            value = eta_comp(rng.uniform(-1e-6, 1e-6), 94e-9,
                             rng.uniform(0, 2e-6))
            assert -1e-15 <= value <= 1.0 + 1e-15


class TestEtaTrans:
    def test_wide_window_limit(self):
        assert eta_trans(94e-9, 1e12) == pytest.approx(1.0, rel=1e-6)

    def test_algebraic_point(self):
        width = math.sqrt(2.0) / 94e-9
        assert eta_trans(94e-9, width) == pytest.approx(1 / math.sqrt(2),
                                                        rel=1e-12)

    def test_reference_point(self):
        value = eta_trans(94e-9, TWO_PI * 3.3e6)
        assert value == pytest.approx(0.8093821345045521, rel=1e-12)

    def test_matches_spectral_overlap_oracle(self):
        # pulse spectral intensity against the Gaussian transmission window
        for om_mhz, d_p in ((15.0, 127.0), (8.0, 40.0), (30.0, 200.0)):
            omega_c = TWO_PI * om_mhz * 1e6
            tau_p = 94e-9
            width = omega_c**2 / (GAMMA * math.sqrt(d_p))
            lim = 12.0 / tau_p
            spectrum = lambda d: math.exp(-2.0 * d**2 * tau_p**2)
            transmitted = lambda d: spectrum(d) * math.exp(
                -d_p * (2.0 * GAMMA * d / omega_c**2)**2)
            num, _ = quad(transmitted, -lim, lim, epsabs=1e-30, epsrel=1e-13)
            den, _ = quad(spectrum, -lim, lim, epsabs=1e-30, epsrel=1e-13)
            assert eta_trans(tau_p, width) == pytest.approx(num / den,
                                                            rel=1e-6)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            eta_trans(0.0, 1e7)
        with pytest.raises(ValueError):
            eta_trans(94e-9, 0.0)


class TestEtaTotal:
    def test_outside_cloud(self, medium, pulse):
        result = eta_total(TWO_PI * 15e6, pulse, medium, x=8e-6)
        assert result.eta_total == 0.0
        assert result.eta_comp == 0.0
        assert result.compression is None

    def test_product_structure(self, medium, pulse):
        result = eta_total(TWO_PI * 15e6, pulse, medium)
        assert result.eta_total == result.eta_comp * result.eta_trans
        assert result.compression.compressible

    def test_on_axis_maximum_location(self, medium, pulse):
        # dense-grid characterization of the on-axis product curve
        omegas = TWO_PI * np.linspace(5e6, 60e6, 1101)
        values = [eta_total(om, pulse, medium).eta_total for om in omegas]
        k = int(np.argmax(values))
        assert values[k] == pytest.approx(0.847, abs=0.005)
        assert omegas[k] / TWO_PI == pytest.approx(17.2e6, abs=0.6e6)

    def test_high_power_tail_decays(self, medium, pulse):
        values = [eta_total(TWO_PI * f * 1e6, pulse, medium).eta_total
                  for f in (30, 50, 80, 120)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_scaling_invariance(self, medium):
        # eta(omega/sqrt(s), s t0; s tau_p) = eta(omega, t0; tau_p) when the
        # vacuum transit time is neglected
        base = PulseParams(tau_p=94e-9, t0=230e-9, waist=8e-6)
        omegas = TWO_PI * np.array([6e6, 15e6, 40e6])
        t0s = np.array([50e-9, 230e-9, 700e-9])
        for s in (0.5, 2.0, 5.0):
            scaled = PulseParams(tau_p=s * base.tau_p, t0=base.t0,
                                 waist=base.waist)
            for om in omegas:
                for t0 in t0s:
                    ref = eta_total(om, PulseParams(base.tau_p, t0,
                                                    waist=base.waist),
                                    medium, include_transit=False).eta_total
                    mapped = eta_total(
                        om / math.sqrt(s),
                        PulseParams(scaled.tau_p, s * t0, waist=base.waist),
                        medium, include_transit=False).eta_total
                    assert abs(mapped - ref) <= 1e-9


class TestTransverseAverage:
    def test_narrow_beam_limit(self, medium, pulse):
        on_axis = eta_total(TWO_PI * 15e6, pulse, medium).eta_total
        avg = transverse_average_eta(TWO_PI * 15e6, pulse, medium,
                                     waist=0.5e-6)
        assert avg == pytest.approx(on_axis, rel=5e-3)

    def test_reference_point(self, medium, pulse):
        avg = transverse_average_eta(TWO_PI * 15e6, pulse, medium)
        assert avg == pytest.approx(0.6018497383840131, rel=1e-6)

    def test_gauss_legendre_agrees_with_adaptive(self, medium, pulse):
        # optimize_eta's fixed-node objective at a single (omega, t0) point
        for om_mhz in (8.0, 15.0, 35.0):
            omega = TWO_PI * om_mhz * 1e6
            ref = transverse_average_eta(omega, pulse, medium)
            fast = optimize_eta(medium, pulse, omega_bounds=(omega, omega),
                                t0_bounds=(230e-9, 230e-9),
                                waist=pulse.waist, grid_shape=(1, 1)).eta
            assert fast == pytest.approx(ref, rel=1e-6)

    def test_matches_2d_quadrature(self, medium, pulse):
        from becmemory.efficiency import _eta_on_depth
        omega = TWO_PI * 15e6
        w = pulse.waist

        def integrand(y, x):
            d_p = optical_depth(medium, x, y)
            transit = medium.chord_length(x, y) / SPEED_OF_LIGHT
            eta = float(_eta_on_depth(d_p, omega, pulse.t0, pulse.tau_p,
                                      GAMMA, transit))
            return 2.0 / (math.pi * w**2) \
                * math.exp(-2.0 * (x * x + y * y) / w**2) * eta

        quadrant, _ = dblquad(
            integrand, 0.0, medium.r_x, 0.0,
            lambda x: medium.r_y * math.sqrt(max(1 - (x / medium.r_x)**2,
                                                 0.0)),
            epsabs=1e-12, epsrel=1e-8)
        reference = transverse_average_eta(omega, pulse, medium)
        assert 4.0 * quadrant == pytest.approx(reference, rel=1e-4)

    @settings(max_examples=12, deadline=None)
    @given(d_p=st.floats(1.0, 1000.0), waist_um=st.floats(0.05, 100.0),
           tau_ns=st.floats(20.0, 500.0), t0_us=st.floats(0.0, 2.0),
           omegas_mhz=st.lists(st.floats(2.0, 80.0), min_size=5,
                               max_size=5))
    def test_array_call_matches_pointwise_quad(self, d_p, waist_um, tau_ns,
                                               t0_us, omegas_mhz):
        medium = MediumParams(atom_number=1.2e6, r_x=7e-6, r_y=25e-6,
                              r_z=25e-6, gamma_total=GAMMA,
                              branching_ratio=1.0 / 12.0,
                              lambda_p=795e-9).rescaled_to_depth(d_p)
        pulse = PulseParams(tau_p=tau_ns * 1e-9, t0=t0_us * 1e-6,
                            waist=waist_um * 1e-6)
        omegas = TWO_PI * np.array(omegas_mhz) * 1e6

        def integrand(r, omega):
            # the efficiency is constant on the ellipse through (r Rx, 0)
            line = eta_total(omega, pulse, medium, x=r * medium.r_x)
            return _radial_weight(r, medium.r_x, medium.r_y, pulse.waist) \
                * line.eta_total

        oracle = np.array([
            quad(integrand, 0.0, 1.0, args=(om,), epsabs=1e-13,
                 epsrel=1e-10, limit=200)[0] for om in omegas])
        avg = transverse_average_eta(omegas, pulse, medium)
        assert avg.shape == omegas.shape
        # 1e-13 is the absolute tolerance both integrators are asked for
        assert np.max(np.abs(avg - oracle)) <= 1e-9 * np.max(oracle) + 1e-13

        on_axis = eta_total(omegas, pulse, medium).eta_total
        depths = np.linspace(-1.0, d_p, 7)
        on_depth = _eta_on_depth(depths[:, None], omegas, pulse.t0,
                                 pulse.tau_p, GAMMA)
        for eta in (avg, on_axis, on_depth):
            assert np.all((eta >= 0.0) & (eta <= 1.0))

    def test_wide_beam_bounded_by_cloud_coverage(self, pulse):
        medium = MediumParams(atom_number=1.2e6, r_x=10e-6, r_y=10e-6,
                              r_z=25e-6, gamma_total=GAMMA,
                              branching_ratio=1.0 / 12.0, lambda_p=795e-9)
        w = 100e-6
        avg = transverse_average_eta(TWO_PI * 15e6, pulse, medium, waist=w)
        coverage = 1.0 - math.exp(-2.0 * medium.r_x**2 / w**2)
        peak = eta_total(TWO_PI * 15e6, pulse, medium).eta_total
        assert avg <= 1.05 * coverage * peak


class TestOptimizeEta:
    def test_averaged_curve_maximum(self, medium, pulse):
        # with the switch-off time pinned to its reference value the
        # transverse-averaged efficiency peaks near 60% at 2 pi x 15 MHz
        result = optimize_eta(medium, pulse, waist=pulse.waist,
                              t0_bounds=(230e-9, 230e-9),
                              omega_bounds=(TWO_PI * 5e6, TWO_PI * 60e6),
                              grid_shape=(120, 1))
        assert abs(result.eta - 0.60) <= 0.03
        assert abs(result.omega_c - TWO_PI * 15e6) <= TWO_PI * 2e6
        assert not result.on_boundary

    def test_free_optimum_beats_pinned(self, medium, pulse):
        pinned = optimize_eta(medium, pulse, waist=pulse.waist,
                              t0_bounds=(230e-9, 230e-9),
                              omega_bounds=(TWO_PI * 5e6, TWO_PI * 60e6),
                              grid_shape=(80, 1))
        free = optimize_eta(medium, pulse, waist=pulse.waist,
                            omega_bounds=(TWO_PI * 5e6, TWO_PI * 60e6),
                            t0_bounds=(0.0, 1e-6), grid_shape=(80, 80))
        assert free.eta >= pinned.eta

    def test_scaling_property(self, medium):
        # doubling the pulse width moves the optimum to omega/sqrt(2) and
        # 2 t0 at unchanged efficiency
        bounds = (TWO_PI * 5e6, TWO_PI * 60e6)
        base_pulse = PulseParams(tau_p=94e-9, t0=0.0, waist=8e-6)
        base = optimize_eta(medium, base_pulse, omega_bounds=bounds,
                            t0_bounds=(0.0, 1.2e-6), grid_shape=(80, 80),
                            include_transit=False)
        s = 2.0
        scaled_pulse = PulseParams(tau_p=s * 94e-9, t0=0.0, waist=8e-6)
        scaled = optimize_eta(
            medium, scaled_pulse,
            omega_bounds=(bounds[0] / math.sqrt(s), bounds[1] / math.sqrt(s)),
            t0_bounds=(0.0, s * 1.2e-6), grid_shape=(80, 80),
            include_transit=False)
        assert scaled.eta == pytest.approx(base.eta, rel=1e-6)
        assert scaled.omega_c == pytest.approx(base.omega_c / math.sqrt(s),
                                               rel=1e-4)
        assert scaled.t0 == pytest.approx(s * base.t0, rel=1e-4)

    def test_degenerate_omega_bounds(self, medium, pulse):
        omega = TWO_PI * 15e6
        result = optimize_eta(medium, pulse, omega_bounds=(omega, omega),
                              t0_bounds=(0.0, 1e-6), grid_shape=(1, 200))
        assert result.omega_c == pytest.approx(omega, rel=1e-12)
        # on-axis optimum switch-off splits the in-medium window evenly
        tau_d = pulse_delay(omega, optical_depth(medium), GAMMA)
        transit = medium.chord_length() / SPEED_OF_LIGHT
        assert result.t0 == pytest.approx((tau_d + transit) / 2, rel=1e-3)

    def test_boundary_flagged(self, medium, pulse):
        result = optimize_eta(medium, pulse,
                              omega_bounds=(TWO_PI * 40e6, TWO_PI * 100e6),
                              t0_bounds=(230e-9, 230e-9),
                              grid_shape=(40, 1))
        assert result.on_boundary
        assert result.omega_c == pytest.approx(TWO_PI * 40e6, rel=1e-9)

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="optimize_eta's refinement stops while its t0 stencil is "
               "still wider than the pulse: at d_p = 195, tau_p = 20 ns "
               "the on-axis search ends on the t0 = 0 boundary at "
               "eta = 0.479, the averaged one finds 0.835")
    @settings(max_examples=30, deadline=None)
    @example(d_p=195.0, tau_ns=20.0, waist_um=1.0)
    @given(d_p=st.floats(1.0, 1000.0), tau_ns=st.floats(20.0, 500.0),
           waist_um=st.floats(1.0, 50.0))
    def test_averaged_optimum_never_beats_on_axis(self, d_p, tau_ns,
                                                  waist_um):
        # At one (omega_c, t0) thinner off-axis lines can beat the axis;
        # over the same search bounds the averaged optimum cannot.
        medium = MediumParams(atom_number=1.2e6, r_x=7e-6, r_y=25e-6,
                              r_z=25e-6, gamma_total=GAMMA,
                              branching_ratio=1.0 / 12.0,
                              lambda_p=795e-9).rescaled_to_depth(d_p)
        pulse = PulseParams(tau_p=tau_ns * 1e-9, t0=0.0,
                            waist=waist_um * 1e-6)
        on_axis = optimize_eta(medium, pulse, grid_shape=(24, 24))
        averaged = optimize_eta(medium, pulse, waist=pulse.waist,
                                grid_shape=(24, 24))
        assert averaged.eta <= on_axis.eta * (1.0 + REFINE_TOL)


class TestRecoilAndDecay:
    def test_recoil_lifetime(self):
        sigma = recoil_sigma_eta(8e-6, 795e-9)
        assert sigma == pytest.approx(0.9805364926151595e-3, rel=1e-12)
        assert abs(sigma - 0.98e-3) <= 0.02e-3

    def test_recoil_scalings(self):
        base = recoil_sigma_eta(8e-6, 795e-9)
        assert recoil_sigma_eta(16e-6, 795e-9) \
            == pytest.approx(2 * base, rel=1e-12)
        assert recoil_sigma_eta(8e-6, 2 * 795e-9) \
            == pytest.approx(2 * base, rel=1e-12)

    def test_eta_decay(self):
        assert eta_decay(0.0, 0.3, 1e-3) == 0.3
        assert eta_decay(1e-3, 0.3, 1e-3) == pytest.approx(
            0.3 * math.exp(-0.5), rel=1e-12)
        with pytest.raises(ValueError):
            eta_decay(1e-3, 0.3, 0.0)


class TestThermalDecay:
    def test_reference_point(self):
        # 1 uK thermal cloud, perpendicular beams on the same line
        value = thermal_decay_time(1e-6)
        lam_db = math.sqrt(2 * math.pi * HBAR**2
                           / (RB87_MASS * BOLTZMANN * 1e-6))
        v_rel = HBAR * math.sqrt(2.0) * TWO_PI / 795e-9 \
            / RB87_MASS
        assert lam_db == pytest.approx(0.18717e-6, rel=1e-4)
        assert v_rel == pytest.approx(8.1588e-3, rel=1e-4)
        assert value == pytest.approx(lam_db / v_rel, rel=1e-12)
        assert value == pytest.approx(22.94e-6, rel=1e-3)

    def test_temperature_scaling(self):
        assert thermal_decay_time(4e-6) == pytest.approx(
            thermal_decay_time(1e-6) / 2.0, rel=1e-12)

    def test_perpendicular_geometry(self):
        k = TWO_PI / 795e-9
        value = thermal_decay_time(1e-6, angle_deg=90.0)
        explicit = math.sqrt(2 * math.pi * HBAR**2 /
                             (RB87_MASS * BOLTZMANN * 1e-6)) \
            / (HBAR * math.sqrt(2.0) * k / RB87_MASS)
        assert value == pytest.approx(explicit, rel=1e-12)

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            thermal_decay_time(0.0)


class TestBimodalEta:
    def test_pure_condensate(self):
        t = np.linspace(0, 2e-3, 50)
        np.testing.assert_allclose(bimodal_eta(t, 1.0, 0.98e-3, 23e-6),
                                   np.exp(-t**2 / (2 * 0.98e-3**2)),
                                   rtol=1e-12)

    def test_pure_thermal_vanishes(self):
        assert bimodal_eta(5e-4, 0.0, 0.98e-3, 23e-6) \
            == pytest.approx(0.0, abs=1e-12)

    def test_plateau_at_condensate_fraction(self):
        for fc in (0.3, 0.6, 0.9):
            value = float(bimodal_eta(150e-6, fc, 0.98e-3, 23e-6))
            assert value == pytest.approx(fc, abs=0.02)

    def test_normalized_and_monotone(self):
        t = np.linspace(0, 3e-3, 400)
        curve = bimodal_eta(t, 0.4, 0.98e-3, 23e-6)
        assert curve[0] == 1.0
        assert np.all(np.diff(curve) <= 1e-15)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            bimodal_eta(0.0, 1.2, 1e-3, 1e-5)
