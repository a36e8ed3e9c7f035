import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from becmemory.constants import SPEED_OF_LIGHT
from becmemory.eit import (ControlField, MediumParams,
                           check_compression_condition, chi0, group_index,
                           group_velocity, im_chi_maxima, optical_depth,
                           pulse_delay, susceptibility, susceptibility_approx,
                           transparency_width)

TWO_PI = 2.0 * math.pi
GAMMA = 1.0 / 26e-9


def reference_medium() -> MediumParams:
    return MediumParams(atom_number=1.2e6, r_x=7e-6, r_y=25e-6, r_z=25e-6,
                        gamma_total=GAMMA, branching_ratio=1.0 / 12.0,
                        lambda_p=795e-9)


@pytest.fixture
def medium() -> MediumParams:
    return reference_medium()


class TestMediumParams:
    def test_peak_density(self, medium):
        expected = 15.0 * 1.2e6 / (8.0 * math.pi * 7e-6 * 25e-6 * 25e-6)
        assert medium.peak_density == pytest.approx(expected, rel=1e-15)

    def test_cross_section(self, medium):
        assert medium.cross_section == pytest.approx(
            3.0 * 795e-9**2 / TWO_PI, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            MediumParams(0, 1e-6, 1e-6, 1e-6, 1.0, 0.1, 795e-9)
        with pytest.raises(ValueError):
            MediumParams(1e6, 1e-6, 1e-6, 1e-6, 1.0, 1.5, 795e-9)

    def test_rescaled_to_depth(self, medium):
        scaled = medium.rescaled_to_depth(127.0)
        assert optical_depth(scaled) == pytest.approx(127.0, rel=1e-12)

    def test_chord_length(self, medium):
        assert medium.chord_length() == pytest.approx(50e-6, rel=1e-15)
        assert medium.chord_length(x=7e-6) == 0.0


class TestOpticalDepth:
    def test_peak_value(self, medium):
        # exact arithmetic from the rounded inputs gives 137.2, inside the
        # 10% band around the nominal 127
        d_p = optical_depth(medium)
        assert d_p == pytest.approx(137.2232594818897, rel=1e-12)
        assert abs(d_p - 127.0) <= 13.0

    def test_zero_outside_cloud(self, medium):
        assert optical_depth(medium, x=7e-6) == 0.0
        assert optical_depth(medium, x=8e-6, y=1e-6) == 0.0

    def test_transverse_scaling(self, medium):
        # at x^2/Rx^2 + y^2/Ry^2 = 3/4 the depth is peak/8
        x = 7e-6 * math.sqrt(0.5)
        y = 25e-6 * 0.5
        assert optical_depth(medium, x, y) == pytest.approx(
            optical_depth(medium) / 8.0, rel=1e-12)

    def test_matches_peak_density_formula(self, medium):
        expected = medium.branching_ratio * medium.cross_section \
            * (4.0 / 3.0) * medium.peak_density * medium.r_z
        assert optical_depth(medium) == pytest.approx(expected, rel=1e-15)

    def test_continuous_at_cloud_edge(self, medium):
        just_inside = optical_depth(medium, x=7e-6 * (1.0 - 1e-6))
        assert 0.0 < just_inside < 1e-3 * optical_depth(medium)

    def test_numerical_line_integral(self, medium):
        # independent check: integrate the Thomas-Fermi parabola along z
        from scipy.integrate import quad
        x, y = 3e-6, 10e-6
        integrand = lambda z: medium.density(x, y, z)
        rho_int, _ = quad(integrand, -25e-6, 25e-6, epsabs=1e-3)
        expected = medium.branching_ratio * medium.cross_section * rho_int
        assert optical_depth(medium, x, y) == pytest.approx(expected,
                                                            rel=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                    min_size=1, max_size=20))
    @example(offsets=[(0.9375, 0.14887433898163122)])   # ** rounded apart
    def test_line_geometry_broadcasts_like_scalar_calls(self, offsets):
        # offsets in units of (Rx, Ry), inside and outside the ellipse
        medium = reference_medium()
        x = medium.r_x * np.array([u for u, _ in offsets])
        y = medium.r_y * np.array([v for _, v in offsets])
        depth = optical_depth(medium, x, y)
        chord = medium.chord_length(x, y)
        assert depth.shape == chord.shape == x.shape
        for i in range(x.size):
            xi, yi = float(x[i]), float(y[i])
            assert depth[i] == optical_depth(medium, xi, yi)
            assert chord[i] == medium.chord_length(xi, yi)
        outside = (x / medium.r_x)**2 + (y / medium.r_y)**2 >= 1.0
        assert np.all(depth[outside] == 0.0)
        assert np.all(chord[outside] == 0.0)


class TestGroupIndexAndVelocity:
    def test_reference_value(self, medium):
        n_gr = group_index(TWO_PI * 15e6, medium.peak_density, medium)
        assert n_gr == pytest.approx(5.3438e6, rel=1e-3)
        assert abs(n_gr - 5e6) <= 0.2 * 5e6

    def test_zero_density(self, medium):
        assert group_index(TWO_PI * 15e6, 0.0, medium) == 0.0

    def test_inverse_square_scaling(self, medium):
        base = group_index(TWO_PI * 10e6, medium.peak_density, medium)
        assert group_index(TWO_PI * 40e6, medium.peak_density, medium) \
            == pytest.approx(base / 16.0, rel=1e-12)

    def test_group_velocity(self):
        assert group_velocity(0.0) == SPEED_OF_LIGHT
        assert group_velocity(5e6) == pytest.approx(59.958, abs=1e-3)
        assert group_velocity(1e9) < group_velocity(5e6)


class TestChi0:
    def test_zero_density(self, medium):
        assert chi0(TWO_PI * 15e6, medium, 0.0) == 0.0

    def test_reference_value(self, medium):
        value = chi0(TWO_PI * 15e6, medium, medium.peak_density)
        assert value == pytest.approx(0.52086, rel=1e-3)
        assert abs(value - 0.5) <= 0.06

    def test_linear_in_density(self, medium):
        rho = medium.peak_density
        assert chi0(TWO_PI * 15e6, medium, 2 * rho) == pytest.approx(
            2 * chi0(TWO_PI * 15e6, medium, rho), rel=1e-12)

    def test_independent_of_control_power(self, medium):
        # the Rabi frequency cancels between the group index and the scale
        rho = medium.peak_density
        assert chi0(TWO_PI * 5e6, medium, rho) == pytest.approx(
            chi0(TWO_PI * 50e6, medium, rho), rel=1e-12)


class TestSusceptibility:
    def test_exact_transparency_on_resonance(self):
        field = ControlField(TWO_PI * 20e6, 0.0)
        value = susceptibility(0.0, field, 0.5, GAMMA)
        assert value.re == 0.0 and value.im == 0.0

    def test_absorption_never_negative(self, rng):
        for _ in range(300):
            field = ControlField(TWO_PI * rng.uniform(1, 80) * 1e6,
                                 TWO_PI * rng.uniform(-90, 90) * 1e6)
            delta2 = TWO_PI * rng.uniform(-150, 150) * 1e6
            assert susceptibility(delta2, field, 0.5, GAMMA).im >= 0.0

    def test_maxima_positions_symmetric(self):
        field = ControlField(TWO_PI * 20e6, 0.0)
        lo, hi = im_chi_maxima(field)
        assert hi == pytest.approx(TWO_PI * 10e6, rel=1e-12)
        assert lo == pytest.approx(-TWO_PI * 10e6, rel=1e-12)

    def test_maxima_positions_detuned(self):
        field = ControlField(TWO_PI * 20e6, TWO_PI * 70e6)
        lo, hi = im_chi_maxima(field)
        assert hi == pytest.approx(TWO_PI * 1.4005494464025934e6, rel=1e-12)
        assert lo == pytest.approx(-TWO_PI * 71.4005494464026e6, rel=1e-12)
        # far-detuned shortcut Omega^2 / 4 Delta
        assert hi == pytest.approx(field.omega_c**2 / (4 * field.delta_c),
                                   rel=0.03)

    def test_maxima_match_numerical_search(self):
        for delta_c_mhz in (0.0, 70.0, -40.0):
            field = ControlField(TWO_PI * 20e6, TWO_PI * delta_c_mhz * 1e6)
            for root in im_chi_maxima(field):
                res = minimize_scalar(
                    lambda d: -susceptibility(d, field, 0.5, GAMMA).im,
                    bracket=(root - abs(root) * 1e-3 - 1e3, root,
                             root + abs(root) * 1e-3 + 1e3),
                    method="brent", options={"xtol": 1e-12})
                assert res.x == pytest.approx(root, rel=1e-6)

    def test_peak_absorption_equals_chi0(self):
        field = ControlField(TWO_PI * 20e6, TWO_PI * 70e6)
        for root in im_chi_maxima(field):
            assert susceptibility(root, field, 0.5, GAMMA).im \
                == pytest.approx(0.5, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-150.0, 150.0), min_size=1, max_size=20),
           st.floats(1.0, 80.0), st.floats(-90.0, 90.0))
    def test_array_call_matches_pointwise(self, delta2_mhz, omega_mhz,
                                          delta_c_mhz):
        # a scalar detuning gives the same bits as its element of the
        # array call, for the exact form and for the expansion
        field = ControlField(TWO_PI * omega_mhz * 1e6,
                             TWO_PI * delta_c_mhz * 1e6)
        delta2 = TWO_PI * np.array(delta2_mhz) * 1e6
        exact = susceptibility(delta2, field, 0.5, GAMMA)
        approx = susceptibility_approx(delta2, field.omega_c, 0.5, GAMMA)
        for k, d in enumerate(delta2):
            one = susceptibility(float(d), field, 0.5, GAMMA)
            one_approx = susceptibility_approx(float(d), field.omega_c, 0.5,
                                               GAMMA)
            assert (one.re, one.im, one_approx.re, one_approx.im) \
                == (exact.re[k], exact.im[k], approx.re[k], approx.im[k]), k

    def test_detuning_regime_diagnostic(self):
        # operating point of the detuned measurements: 4 Delta_c / Gamma
        # sqrt(d_p) is about 4
        value = 4 * TWO_PI * 70e6 / (GAMMA * math.sqrt(127.0))
        assert value == pytest.approx(4.06, abs=0.01)


class TestSusceptibilityApprox:
    def test_zero_detuning(self):
        value = susceptibility_approx(0.0, TWO_PI * 20e6, 0.5, GAMMA)
        assert value.re == 0.0 and value.im == 0.0

    def test_independent_of_single_photon_detuning(self):
        # the expansion has no Delta_c anywhere
        delta2 = TWO_PI * 0.3e6
        a = susceptibility_approx(delta2, TWO_PI * 20e6, 0.5, GAMMA)
        b = susceptibility_approx(delta2, TWO_PI * 20e6, 0.5, GAMMA)
        assert (a.re, a.im) == (b.re, b.im)

    def test_first_order_agreement_on_resonance(self):
        omega_c = TWO_PI * 20e6
        field = ControlField(omega_c, 0.0)
        for frac in np.linspace(-1.0, 1.0, 21):
            delta2 = frac * omega_c / 100.0
            if delta2 == 0.0:
                continue
            exact = susceptibility(delta2, field, 0.5, GAMMA)
            approx = susceptibility_approx(delta2, omega_c, 0.5, GAMMA)
            assert abs(approx.re - exact.re) <= 1e-3 * abs(exact.re)

    def test_agreement_scale_relative(self):
        # over |delta2| <= Omega^2/(100 max(Gamma, Delta_c)) the expansion
        # tracks the exact response to 1e-4 (Re) and 1e-2 (Im) in units of
        # the susceptibility scale chi0
        chi0_value = 0.5
        omega_c = TWO_PI * 20e6
        for delta_c in (0.0, TWO_PI * 70e6):
            field = ControlField(omega_c, delta_c)
            window = omega_c**2 / (100.0 * max(GAMMA, abs(delta_c)))
            for frac in np.linspace(-1.0, 1.0, 41):
                delta2 = frac * window
                exact = susceptibility(delta2, field, chi0_value, GAMMA)
                approx = susceptibility_approx(delta2, omega_c, chi0_value,
                                               GAMMA)
                assert abs(approx.re - exact.re) <= 1e-4 * chi0_value
                assert abs(approx.im - exact.im) <= 1e-2 * chi0_value


class TestDelayAndWindow:
    def test_pulse_delay_reference(self):
        tau_d = pulse_delay(TWO_PI * 15e6, 127.0, GAMMA)
        assert tau_d == pytest.approx(549.91e-9, rel=1e-3)
        assert abs(tau_d - 550e-9) <= 0.1 * 550e-9

    def test_pulse_delay_trivial(self):
        assert pulse_delay(TWO_PI * 15e6, 0.0, GAMMA) == 0.0
        base = pulse_delay(TWO_PI * 10e6, 100.0, GAMMA)
        assert pulse_delay(TWO_PI * 20e6, 100.0, GAMMA) == pytest.approx(
            base / 4.0, rel=1e-12)

    def test_transparency_width_reference(self):
        width = transparency_width(TWO_PI * 15e6, GAMMA, 127.0)
        assert width == pytest.approx(TWO_PI * 3.2617e6, rel=1e-3)
        assert abs(width - TWO_PI * 3.3e6) <= TWO_PI * 0.2e6

    def test_transparency_width_scaling(self):
        base = transparency_width(TWO_PI * 15e6, GAMMA, 30.0)
        assert transparency_width(TWO_PI * 15e6, GAMMA, 120.0) \
            == pytest.approx(base / 2.0, rel=1e-12)

    def test_transparency_width_zero_depth(self):
        with pytest.raises(ValueError):
            transparency_width(TWO_PI * 15e6, GAMMA, 0.0)

    def test_delay_width_identity(self, rng):
        # tau_d x width = sqrt(d_p) algebraically
        for _ in range(50):
            omega = TWO_PI * rng.uniform(2, 60) * 1e6
            d_p = rng.uniform(0.5, 300)
            product = pulse_delay(omega, d_p, GAMMA) \
                * transparency_width(omega, GAMMA, d_p)
            assert product == pytest.approx(math.sqrt(d_p), rel=1e-14)


class TestCompressionCondition:
    def test_reference_point(self):
        check = check_compression_condition(550e-9, 94e-9, 127.0)
        assert check.delay_ratio == pytest.approx(5.851, abs=1e-3)
        assert check.sqrt_dp == pytest.approx(11.269, abs=1e-3)
        assert check.compressible and check.low_absorption

    def test_not_compressible(self):
        check = check_compression_condition(47e-9, 94e-9, 127.0)
        assert not check.compressible

    def test_absorbing(self):
        check = check_compression_condition(470e-9, 94e-9, 1.0)
        assert not check.low_absorption

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            check_compression_condition(1e-9, 0.0, 1.0)
