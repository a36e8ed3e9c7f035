import math

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becmemory.constants import (BOLTZMANN, DELTA_MF, G_F, HBAR,
                                 MU_B_OVER_H, SPEED_OF_LIGHT)
from becmemory.memory import (NOISE_PRESETS, MemoryParams, MuellerMatrix,
                              NoiseModel, apply_detector_noise, apply_mueller,
                              average_process_fidelity, damping_factor,
                              faraday_frequency, memory_mueller,
                              rotation_angle, s1_trace, sample_shots,
                              sigma_alpha_from_noise)
from becmemory.polarization import PoincareVector, StokesVector, fidelity

from conftest import random_physical_stokes

TWO_PI = 2.0 * math.pi


class TestFaradayFrequency:
    def test_hold_field_value(self):
        # 0.14 G gives 2 pi x 0.196 MHz, i.e. 0.20 MHz to rounding
        nu = faraday_frequency(0.14) / TWO_PI
        assert nu == pytest.approx(0.196e6, rel=1e-12)
        assert abs(nu - 0.20e6) <= 0.005e6

    def test_zero_field(self):
        assert faraday_frequency(0.0) == 0.0

    def test_one_gauss(self):
        assert faraday_frequency(1.0) == pytest.approx(TWO_PI * 1.40e6,
                                                       rel=1e-15)

    def test_sign_follows_field(self):
        assert faraday_frequency(-0.2) == -faraday_frequency(0.2)


class TestRotationAngle:
    def test_half_turn(self):
        phi = rotation_angle(2.5e-6, 0.0, TWO_PI * 0.20e6)
        assert phi == pytest.approx(math.pi, rel=1e-12)

    def test_zero_times(self):
        assert rotation_angle(0.0, 0.0, 12.3) == 0.0

    def test_delay_contribution(self):
        phi = rotation_angle(0.0, 550e-9, TWO_PI * 0.20e6)
        assert phi == pytest.approx(0.6911503837897545, rel=1e-12)

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            rotation_angle(-1e-6, 0.0, 1.0)
        with pytest.raises(ValueError):
            rotation_angle(np.array([0.0, -1e-6]), 0.0, 1.0)


class TestMemoryMueller:
    def test_identity(self):
        m = memory_mueller(MemoryParams(1.0, 1.0, 0.0))
        np.testing.assert_array_equal(m.m, np.eye(4))

    def test_quarter_rotation(self):
        m = memory_mueller(MemoryParams(1.0, 1.0, math.pi / 2))
        out = apply_mueller(m, StokesVector(1, 1, 0, 0))
        np.testing.assert_allclose(out.as_array(), [1, 0, 1, 0], atol=1e-15)
        out = apply_mueller(m, StokesVector(1, 0, 1, 0))
        np.testing.assert_allclose(out.as_array(), [1, -1, 0, 0], atol=1e-15)

    def test_fully_dephased(self):
        m = memory_mueller(MemoryParams(0.5, 0.0, 1.234))
        np.testing.assert_allclose(m.m, np.diag([0.5, 0.0, 0.0, 0.5]),
                                   atol=0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MemoryParams(1.2, 1.0, 0.0)
        with pytest.raises(ValueError):
            MemoryParams(0.5, -0.1, 0.0)

    @pytest.mark.parametrize("bad", [1.2, -0.1, math.nan])
    def test_array_validation_keeps_the_scalar_message(self, bad):
        good = np.array([0.5, 0.9])
        values = np.array([0.5, bad])
        with pytest.raises(ValueError, match="^efficiency eta must lie"):
            MemoryParams(values, good, 0.0)
        with pytest.raises(ValueError, match="^damping alpha must lie"):
            MemoryParams(good, values, 0.0)
        with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\]$"):
            average_process_fidelity(values)

    def test_stack_of_matrices(self):
        stack = MuellerMatrix(np.zeros((2, 3, 4, 4)))
        assert stack.m.shape == (2, 3, 4, 4)
        for shape in ((4,), (16,), (4, 3), (2, 4, 5)):
            with pytest.raises(ValueError, match="must be 4x4"):
                MuellerMatrix(np.zeros(shape))

    def test_composition(self, rng):
        for _ in range(50):
            e1, e2 = rng.uniform(0.1, 1.0, 2)
            p1, p2 = rng.uniform(-math.pi, math.pi, 2)
            left = memory_mueller(MemoryParams(e1, 1.0, p1)).m \
                @ memory_mueller(MemoryParams(e2, 1.0, p2)).m
            combined = memory_mueller(
                MemoryParams(e1 * e2, 1.0, p1 + p2)).m
            np.testing.assert_allclose(left, combined, atol=1e-15)


class TestApplyMueller:
    def test_identity(self):
        out = apply_mueller(MuellerMatrix(np.eye(4)), StokesVector(1, 1, 0, 0))
        assert out.as_array().tolist() == [1, 1, 0, 0]

    def test_sigma_plus_survives(self):
        m = memory_mueller(MemoryParams(0.5, 1.0, 0.0))
        out = apply_mueller(m, StokesVector(1, 0, 0, 1))
        np.testing.assert_allclose(out.as_array(), [0.5, 0, 0, 0.5],
                                   atol=1e-16)

    def test_half_turn(self):
        m = memory_mueller(MemoryParams(1.0, 1.0, math.pi))
        out = apply_mueller(m, StokesVector(1, 1, 0, 0))
        np.testing.assert_allclose(out.as_array(), [1, -1, 0, 0], atol=1e-15)

    def test_unphysical_output_warns(self):
        bad = MuellerMatrix(2.0 * np.eye(4) + 0.5)
        with pytest.warns(UserWarning):
            apply_mueller(bad, StokesVector(1, 1, 0, 0))

    def test_stack_matches_each_state(self, rng):
        m = memory_mueller(MemoryParams(0.4, 0.7, 1.1))
        rows = random_physical_stokes(rng, 5)
        out = apply_mueller(m, StokesVector(*rows.T))
        for k, row in enumerate(rows):
            np.testing.assert_allclose(
                out.as_array()[:, k],
                apply_mueller(m, StokesVector(*row)).as_array(),
                rtol=1e-15, atol=1e-15)

    def test_stack_of_matrices_matches_each_matrix(self, rng):
        stack = memory_mueller(MemoryParams(rng.uniform(0.1, 1.0, 3),
                                            rng.uniform(0.0, 1.0, 3),
                                            rng.uniform(-3.0, 3.0, 3)))
        states = StokesVector(*np.array([[1.0, 1.0, 0.0, 0.0],
                                         [2.0, 0.0, 1.2, 1.6]]).T)
        for s_in in (StokesVector(1.0, 0.0, 0.6, 0.8), states):
            out = apply_mueller(stack, s_in).as_array()
            for k, m in enumerate(stack.m):
                one = apply_mueller(MuellerMatrix(m), s_in).as_array()
                assert out[:, k].tobytes() == one.tobytes()

    def test_stack_warns_when_one_state_is_unphysical(self):
        # the unpolarized state stays inside the sphere, H leaves it
        bad = MuellerMatrix(2.0 * np.eye(4) + 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            apply_mueller(bad, StokesVector(1, 0, 0, 0))
        with pytest.warns(UserWarning, match="unphysical Stokes vector"):
            apply_mueller(bad, StokesVector(np.ones(2), np.array([0.0, 1.0]),
                                            np.zeros(2), np.zeros(2)))

    @settings(max_examples=300, deadline=None)
    @given(eta=st.floats(0.0, 1.0), alpha=st.floats(0.0, 1.0),
           phi=st.floats(-10.0, 10.0), s0=st.floats(1e-6, 1e6),
           dop=st.floats(0.0, 1.0), theta=st.floats(0.0, math.pi),
           azimuth=st.floats(0.0, TWO_PI))
    def test_memory_output_is_physical(self, eta, alpha, phi, s0, dop, theta,
                                       azimuth):
        # every degree of polarization, pure states included
        r = dop * s0
        s_in = StokesVector(s0, r * math.sin(theta) * math.cos(azimuth),
                            r * math.sin(theta) * math.sin(azimuth),
                            r * math.cos(theta))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = apply_mueller(memory_mueller(MemoryParams(eta, alpha, phi)),
                                s_in)
        assert out.is_physical()


class TestDamping:
    def test_no_storage(self):
        assert damping_factor(0.0, 1e-3) == 1.0

    def test_characteristic_time(self):
        assert damping_factor(1e-3, 1e-3) == pytest.approx(math.exp(-0.5),
                                                           rel=1e-15)

    def test_fidelity_at_800us(self):
        alpha = damping_factor(800e-6, 1.0e-3)
        assert alpha == pytest.approx(0.7261490370736909, rel=1e-12)
        avg_f = average_process_fidelity(alpha)
        assert avg_f == pytest.approx(0.9087163456912304, rel=1e-12)
        assert abs(avg_f - 0.90) <= 0.02

    def test_infinite_sigma(self):
        assert damping_factor(5.0, math.inf) == 1.0

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            damping_factor(1.0, 0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            damping_factor(np.array([0.0, 1e-3, -1e-9]), 1e-3)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 5e-3), min_size=1, max_size=20),
           st.one_of(st.floats(1e-6, 1e-2), st.just(math.inf)))
    def test_broadcasts_like_scalar_calls(self, times, sigma):
        alpha = damping_factor(np.array(times), sigma)
        assert alpha.shape == (len(times),)
        for t, a in zip(times, alpha):
            assert a == damping_factor(t, sigma)
        if math.isinf(sigma):
            assert np.all(alpha == 1.0)


class TestSigmaAlphaFromNoise:
    def test_unsynchronized(self):
        value = sigma_alpha_from_noise(2e-3)
        assert value == pytest.approx(5.684105110424781e-5, rel=1e-12)
        assert abs(value - 0.057e-3) <= 0.003e-3

    def test_line_synced(self):
        value = sigma_alpha_from_noise(1e-4)
        assert value == pytest.approx(1.1368210220849562e-3, rel=1e-12)
        assert 1.0e-3 <= value <= 1.2e-3

    def test_feed_forward(self):
        value = sigma_alpha_from_noise(2e-4)
        assert value == pytest.approx(5.684105110424781e-4, rel=1e-12)
        # the measured benchmark is 0.49 ms; the model gives 0.57 ms
        assert abs(value - 0.49e-3) <= 0.1e-3

    def test_zero_noise_sentinel(self):
        assert sigma_alpha_from_noise(0.0) == math.inf

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sigma_alpha_from_noise(-1e-4)

    def test_consistent_with_damping(self):
        # alpha(t) built from sigma_alpha equals exp(-sigma_phi^2/2)
        sigma_b, t = 2e-4, 3e-4
        sigma_phi = faraday_frequency(sigma_b) * t
        assert damping_factor(t, sigma_alpha_from_noise(sigma_b)) \
            == pytest.approx(math.exp(-sigma_phi**2 / 2), rel=1e-12)


class TestAverageProcessFidelity:
    def test_perfect(self):
        assert average_process_fidelity(1.0) == 1.0

    def test_fully_dephased(self):
        assert average_process_fidelity(0.0) == pytest.approx(2.0 / 3.0,
                                                              rel=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            average_process_fidelity(1.01)

    def test_matches_sphere_average(self, rng):
        # numerical average of fidelity(u, normalized output) over a uniform
        # sphere sample, routed through the actual matrix application;
        # stratifying u3 (uniform on the sphere) keeps the sample error far
        # below the tolerance at 10^4 points
        from becmemory.polarization import poincare
        n = 10000
        u3 = -1.0 + (2.0 * np.arange(n) + 1.0) / n
        azimuth = rng.uniform(0.0, TWO_PI, n)
        radial = np.sqrt(1.0 - u3**2)
        for alpha in (0.0, 0.5, 0.9):
            m = memory_mueller(MemoryParams(0.7, alpha, 0.0))
            total = 0.0
            for u1, u2, u3i in zip(radial * np.cos(azimuth),
                                   radial * np.sin(azimuth), u3):
                u = PoincareVector(u1, u2, u3i)
                out = apply_mueller(m, StokesVector(1.0, u1, u2, u3i))
                total += fidelity(u, poincare(out))
            assert abs(total / n - average_process_fidelity(alpha)) < 2e-3


class TestS1Trace:
    def test_aligned(self):
        assert s1_trace(0.0, 1e-3, 0.7, 0.7) == 1.0

    def test_quadrature_phase(self):
        assert s1_trace(5e-4, 1e-3, 1.2 + math.pi / 2, 1.2) \
            == pytest.approx(0.0, abs=1e-15)

    def test_envelope(self):
        assert s1_trace(1e-3, 1e-3, 0.4, 0.4) \
            == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_consistent_with_mueller(self, rng):
        # the damped cosine is the s1 row of the memory matrix acting on a
        # linear input with azimuth -phi0
        for _ in range(25):
            t = rng.uniform(0.0, 2e-3)
            sigma = rng.uniform(0.2e-3, 3e-3)
            phi = rng.uniform(-6, 6)
            phi0 = rng.uniform(-3, 3)
            m = memory_mueller(MemoryParams(1.0, damping_factor(t, sigma),
                                            phi))
            s_in = StokesVector(1.0, math.cos(phi0), -math.sin(phi0), 0.0)
            out = apply_mueller(m, s_in)
            assert s1_trace(t, sigma, phi, phi0) == pytest.approx(
                out.s1 / out.s0, rel=1e-12, abs=1e-12)

    def test_time_arrays_match_scalar_calls(self):
        # fig3's model column is one call over its grid; each element is
        # the scalar call's bits
        t = np.linspace(0.0, 60e-6, 241)
        omega_f = TWO_PI * 0.20e6
        phi = rotation_angle(t, 550e-9, omega_f)
        trace = s1_trace(t, 1.1e-3, phi, 0.3)
        assert trace.shape == t.shape
        for k, tk in enumerate(t):
            phi_k = rotation_angle(float(tk), 550e-9, omega_f)
            assert phi_k == phi[k], k
            assert s1_trace(float(tk), 1.1e-3, phi_k, 0.3) == trace[k], k


class TestNoiseModel:
    def test_preset_values(self):
        assert NOISE_PRESETS == {"unsynchronized": 2e-3, "line-synced": 1e-4,
                                 "feed-forward": 2e-4}
        model = NoiseModel.from_preset("feed-forward")
        assert model.sigma_b == 2e-4
        assert model.preset == "feed-forward"

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            NoiseModel.from_preset("mystery")

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(0.1, -1e-4)


class TestSampleShot:
    def test_noise_free_limit(self):
        noise = NoiseModel(1.0 / 7.0, 0.0)
        u = PoincareVector(1.0, 0.0, 0.0)
        t, tau_d, eta = 3.7e-6, 550e-9, 0.8
        shot = StokesVector(*
            sample_shots(u, t, tau_d, eta, noise, 1, seed=5)[0])
        phi = faraday_frequency(noise.mean_bz) * (t + tau_d)
        expected = apply_mueller(memory_mueller(MemoryParams(eta, 1.0, phi)),
                                 StokesVector(1, 1, 0, 0))
        np.testing.assert_allclose(shot.as_array(), expected.as_array(),
                                   rtol=1e-14)

    def test_per_shot_purity(self):
        noise = NoiseModel.from_preset("unsynchronized")
        u = PoincareVector(0.0, 1.0, 0.0)
        for seed in range(20):
            shot = StokesVector(*
                sample_shots(u, 1e-3, 0.0, 0.31, noise, 1, seed)[0])
            norm = math.sqrt(shot.s1**2 + shot.s2**2 + shot.s3**2) / shot.s0
            assert norm == pytest.approx(1.0, abs=1e-12)

    def test_impure_input_rejected(self):
        with pytest.raises(ValueError):
            sample_shots(PoincareVector(0.5, 0, 0), 0.0, 0.0, 1.0,
                         NoiseModel(0.1, 0.0), 1, 0)

    def test_mean_matches_damped_envelope(self):
        # with zero mean field the average s1 at t = sigma_alpha is e^-1/2
        sigma_b = 1e-4
        sigma_alpha = sigma_alpha_from_noise(sigma_b)
        noise = NoiseModel(0.0, sigma_b)
        shots = sample_shots(PoincareVector(1, 0, 0), sigma_alpha, 0.0, 1.0,
                             noise, 100000, seed=314)
        s1 = shots[:, 1] / shots[:, 0]
        se = s1.std(ddof=1) / math.sqrt(len(s1))
        assert abs(s1.mean() - math.exp(-0.5)) < 3 * se

    def test_ensemble_matches_dephased_mueller(self):
        # averaging many unitary shots reproduces the damped ensemble matrix
        n = 100000
        t_store, sigma_b, mean_bz = 2.5e-4, 2e-4, 1.0 / 7.0
        noise = NoiseModel(mean_bz, sigma_b)
        u = PoincareVector(math.cos(0.4), math.sin(0.4), 0.0)
        shots = sample_shots(u, t_store, 0.0, 0.9, noise, n, seed=2718)
        sigma_phi = faraday_frequency(sigma_b) * t_store
        phi_bar = faraday_frequency(mean_bz) * t_store
        expected = memory_mueller(
            MemoryParams(0.9, math.exp(-sigma_phi**2 / 2), phi_bar)).m \
            @ np.array([1.0, u.u1, u.u2, u.u3])
        mean = shots.mean(axis=0)
        se = shots.std(axis=0, ddof=1) / math.sqrt(n)
        for i in (1, 2):
            assert abs(mean[i] - expected[i]) < 5 * se[i]
        assert mean[0] == pytest.approx(expected[0], rel=1e-12)
        assert mean[3] == pytest.approx(expected[3], rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(theta=st.floats(0.0, math.pi), azimuth=st.floats(0.0, TWO_PI),
           t_store=st.floats(0.0, 5e-3), tau_d=st.floats(0.0, 1e-6),
           eta=st.floats(0.0, 1.0), mean_bz=st.floats(-1.0, 1.0),
           sigma_b=st.floats(0.0, 1e-2), n=st.integers(0, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_the_rotation_formula_bit_for_bit(
            self, theta, azimuth, t_store, tau_d, eta, mean_bz, sigma_b, n,
            seed):
        u = PoincareVector(math.sin(theta) * math.cos(azimuth),
                           math.sin(theta) * math.sin(azimuth),
                           math.cos(theta))
        shots = sample_shots(u, t_store, tau_d, eta,
                             NoiseModel(mean_bz, sigma_b), n, seed)
        bz = np.random.default_rng(seed).normal(mean_bz, sigma_b, n)
        phi = 2.0 * math.pi * MU_B_OVER_H * G_F * DELTA_MF * bz \
            * (t_store + tau_d)
        c, s = np.cos(phi), np.sin(phi)
        expected = np.column_stack([
            np.full(n, eta), eta * (c * u.u1 - s * u.u2),
            eta * (s * u.u1 + c * u.u2), np.full(n, eta * u.u3)])
        assert shots.shape == (n, 4) and shots.flags.c_contiguous
        assert shots.tobytes() == expected.tobytes()

    def test_fidelity_of_rotated_shot(self):
        # unitary rotation cannot reduce the s3 fidelity of circular light
        noise = NoiseModel.from_preset("unsynchronized")
        u = PoincareVector(0.0, 0.0, 1.0)
        shot = StokesVector(*
            sample_shots(u, 1e-3, 0.0, 1.0, noise, 1, seed=12)[0])
        out = PoincareVector(shot.s1 / shot.s0, shot.s2 / shot.s0,
                             shot.s3 / shot.s0)
        assert fidelity(u, out) == pytest.approx(1.0, abs=1e-12)


class TestAtomicConstants:
    def test_positive_fields_required(self):
        assert MU_B_OVER_H == 1.40e6
        assert G_F * DELTA_MF == 1.0

    def test_si_literals_match_scipy(self):
        # bit for bit, so no CSV moves when the literals replace scipy's
        import scipy.constants
        assert SPEED_OF_LIGHT == scipy.constants.c
        assert HBAR == scipy.constants.hbar
        assert BOLTZMANN == scipy.constants.k


class TestDetectorNoise:
    def test_statistics(self, rng):
        values = apply_detector_noise(np.full(200000, 2.0), rng,
                                      relative_sigma=0.02, background=0.1)
        assert values.mean() == pytest.approx(2.1, abs=5e-4)
        assert values.std() == pytest.approx(0.04, abs=5e-4)

    def test_zero_stays_zero(self, rng):
        values = apply_detector_noise(np.zeros(100), rng, 0.02, 0.0)
        assert np.all(values == 0.0)

    def test_negative_background_clips_at_zero(self, rng):
        # the library still takes a dark-level offset below zero; readings
        # it would push negative read 0
        values = apply_detector_noise(np.array([0.0, 0.5, 2.0]), rng,
                                      0.0, -1.0)
        np.testing.assert_array_equal(values, [0.0, 0.0, 1.0])
