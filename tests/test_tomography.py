import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becmemory.memory import (MemoryParams, MuellerMatrix,
                              apply_detector_noise, memory_mueller)
from becmemory.polarization import (BASIS_DA, BASIS_HV, BASIS_RL,
                                    StokesVector, measure)
from becmemory.tomography import (TomographyRecord, canonical_inputs,
                                  extract_memory_params, process_tomography,
                                  state_tomography)

LABELS = ("H", "D", "R", "L")


def readings_for(s: StokesVector, rng=None, sigma=0.0):
    out = {}
    for key, basis in (("HV", BASIS_HV), ("DA", BASIS_DA), ("RL", BASIS_RL)):
        pair = np.array(measure(s, basis))
        if rng is not None:
            pair = apply_detector_noise(pair, rng, sigma)
        out[key] = (float(pair[0]), float(pair[1]))
    return out


def record_for_matrix(m: np.ndarray) -> TomographyRecord:
    inputs = canonical_inputs()
    outputs = tuple(StokesVector.from_array(m @ inputs[k].as_array())
                    for k in LABELS)
    return TomographyRecord(tuple(inputs[k] for k in LABELS), outputs)


class TestStateTomography:
    def test_pure_h(self):
        result = state_tomography(readings_for(StokesVector(1, 1, 0, 0)))
        assert result.stokes.as_array().tolist() == [1, 1, 0, 0]
        assert result.degree_of_polarization == 1.0
        assert result.consistent

    def test_attenuated_r(self):
        result = state_tomography(readings_for(StokesVector(0.5, 0, 0, 0.5)))
        np.testing.assert_allclose(result.stokes.as_array(),
                                   [0.5, 0, 0, 0.5], atol=1e-16)

    def test_noisy_reconstruction_unbiased(self):
        truth = StokesVector(1.0, 0.0, 1.0, 0.0)
        rng = np.random.default_rng(99)
        stack = []
        for _ in range(1000):
            rec = state_tomography(readings_for(truth, rng, sigma=0.02))
            stack.append(rec.stokes.as_array())
        stack = np.array(stack)
        se = stack.std(axis=0, ddof=1) / math.sqrt(len(stack))
        pulls = np.abs(stack.mean(axis=0) - truth.as_array()) \
            / np.where(se > 0, se, 1.0)
        assert pulls.max() < 3.0

    def test_inconsistent_s0_flagged(self):
        readings = {"HV": (1.0, 0.0), "DA": (0.7, 0.7), "RL": (0.5, 0.5)}
        result = state_tomography(readings)
        assert not result.consistent
        assert result.s0_spread > 0.1

    def test_missing_basis(self):
        with pytest.raises(ValueError):
            state_tomography({"HV": (1.0, 0.0), "DA": (0.5, 0.5)})


class TestProcessTomography:
    def test_exact_recovery_random_matrices(self, rng):
        for _ in range(20):
            m_true = rng.normal(size=(4, 4))
            recovered = process_tomography(record_for_matrix(m_true)).m
            np.testing.assert_allclose(recovered, m_true, atol=1e-12)

    def test_structured_matrix(self):
        m_true = memory_mueller(MemoryParams(0.3, 0.9, 0.7)).m
        recovered = process_tomography(record_for_matrix(m_true)).m
        np.testing.assert_allclose(recovered, m_true, atol=1e-12)

    def test_condition_number_reported(self):
        record = record_for_matrix(np.eye(4))
        assert record.condition_number == pytest.approx(
            np.linalg.cond(record.input_matrix))

    def test_ill_conditioned_inputs_rejected(self):
        h = StokesVector(1, 1, 0, 0)
        d = StokesVector(1, 0, 1, 0)
        r = StokesVector(1, 0, 0, 1)
        almost_h = StokesVector(1, 1, 1e-12, 0)
        record = TomographyRecord((h, almost_h, d, r), (h, almost_h, d, r))
        with pytest.raises(np.linalg.LinAlgError):
            process_tomography(record)

    def test_noisy_recovery_unbiased(self):
        m_true = memory_mueller(MemoryParams(0.3, 0.9, 0.7)).m
        inputs = canonical_inputs()
        rng = np.random.default_rng(7)
        stack = []
        for _ in range(1000):
            outputs = []
            for k in LABELS:
                s = StokesVector.from_array(m_true @ inputs[k].as_array())
                outputs.append(state_tomography(
                    readings_for(s, rng, sigma=0.01)).stokes)
            rec = TomographyRecord(tuple(inputs[k] for k in LABELS),
                                   tuple(outputs))
            stack.append(process_tomography(rec).m)
        stack = np.array(stack)
        se = stack.std(axis=0, ddof=1) / math.sqrt(len(stack))
        pulls = np.abs(stack.mean(axis=0) - m_true) / np.where(se > 0, se, 1)
        assert pulls.max() < 3.0


class TestExtractMemoryParams:
    def test_inverse_of_constructor(self):
        params, residual = extract_memory_params(
            memory_mueller(MemoryParams(0.5, 0.8, 1.2)))
        assert params.eta == pytest.approx(0.5, abs=1e-15)
        assert params.alpha == pytest.approx(0.8, abs=1e-15)
        assert params.phi == pytest.approx(1.2, abs=1e-15)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_identity(self):
        params, residual = extract_memory_params(MuellerMatrix(np.eye(4)))
        assert (params.eta, params.alpha, params.phi) == (1.0, 1.0, 0.0)
        assert residual == 0.0

    def test_round_trip_grid(self):
        for eta in (0.1, 0.5, 1.0):
            for alpha in (0.05, 0.6, 1.0):
                for phi in (-2.5, 0.0, 0.4, 3.0):
                    params, residual = extract_memory_params(
                        memory_mueller(MemoryParams(eta, alpha, phi)))
                    assert params.eta == pytest.approx(eta, rel=1e-12)
                    assert params.alpha == pytest.approx(alpha, rel=1e-12)
                    assert params.phi == pytest.approx(phi, rel=1e-12)
                    assert residual < 1e-12

    def test_perturbed_matrix(self):
        base = memory_mueller(MemoryParams(0.3, 0.9, 0.7)).m
        perturbed = MuellerMatrix(base + 1e-3)
        params, residual = extract_memory_params(perturbed)
        assert abs(params.eta - 0.3) < 1e-2
        assert abs(params.alpha - 0.9) < 1e-2
        assert abs(params.phi - 0.7) < 1e-2
        assert residual <= 2e-2

    @settings(max_examples=200, deadline=None)
    @given(eta=st.floats(1e-6, 1.0), alpha=st.floats(0.0, 1.0),
           phi=st.floats(-math.pi, math.pi))
    def test_tomography_round_trips_structured_matrix(self, eta, alpha, phi):
        m = memory_mueller(MemoryParams(eta, alpha, phi)).m
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params, residual = extract_memory_params(
                process_tomography(record_for_matrix(m)))
        assert abs(params.eta - eta) / eta <= 1e-12
        assert abs(params.alpha - alpha) <= 1e-12
        # phi is defined modulo 2 pi and only as well as alpha resolves it
        assert alpha * abs(math.remainder(params.phi - phi,
                                          2.0 * math.pi)) <= 1e-12
        assert residual <= 1e-12

    def test_phi_convention_at_zero_alpha(self):
        params, _ = extract_memory_params(
            memory_mueller(MemoryParams(0.4, 0.0, 2.2)))
        assert params.phi == 0.0

    def test_nonpositive_eta_rejected(self):
        with pytest.raises(ValueError):
            extract_memory_params(MuellerMatrix(-np.eye(4)))

    def test_structure_violation_warns(self):
        bad = np.eye(4)
        bad[0, 3] = 0.5
        with pytest.warns(UserWarning):
            extract_memory_params(MuellerMatrix(bad))


class TestNoiseScaling:
    def test_spread_linear_in_noise_and_bias_subdominant(self):
        # recovered (eta, alpha) scatter grows linearly with the detector
        # noise scale while the bias stays at the noise floor
        m_true = memory_mueller(MemoryParams(0.3, 0.9, 0.7)).m
        inputs = canonical_inputs()
        epsilons = (0.01, 0.025, 0.05)
        spreads = {"eta": [], "alpha": []}
        for eps in epsilons:
            rng = np.random.default_rng(2024)
            etas, alphas = [], []
            for _ in range(1500):
                outputs = []
                for k in LABELS:
                    s = StokesVector.from_array(m_true @
                                                inputs[k].as_array())
                    outputs.append(state_tomography(
                        readings_for(s, rng, sigma=eps)).stokes)
                rec = TomographyRecord(tuple(inputs[k] for k in LABELS),
                                       tuple(outputs))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    params, _ = extract_memory_params(process_tomography(rec))
                etas.append(params.eta)
                alphas.append(params.alpha)
            for name, values, truth in (("eta", etas, 0.3),
                                        ("alpha", alphas, 0.9)):
                values = np.array(values)
                se = values.std(ddof=1) / math.sqrt(len(values))
                assert abs(values.mean() - truth) < 3.5 * se \
                    + 0.02 * values.std(ddof=1)
                spreads[name].append(values.std(ddof=1))
        for name in ("eta", "alpha"):
            s = np.array(spreads[name])
            ratios = s / np.array(epsilons)
            assert ratios.max() / ratios.min() < 1.15, \
                f"{name} spread not linear in noise scale: {s}"
