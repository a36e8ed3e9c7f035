import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from becmemory import commands
from becmemory.cli import main
from becmemory.config import RunConfig
from becmemory.eit import optical_depth, pulse_delay
from becmemory.memory import (NOISE_PRESETS, MemoryParams, MuellerMatrix,
                              apply_detector_noise, average_process_fidelity,
                              damping_factor, faraday_frequency,
                              memory_mueller, rotation_angle, sample_shots,
                              sigma_alpha_from_noise)
from becmemory.polarization import (BASIS_DA, BASIS_HV, BASIS_RL,
                                    StokesVector, measure, poincare)
from becmemory.tomography import (ANALYZERS, StructureWarning,
                                  canonical_inputs, extract_memory_params,
                                  process_tomography, state_tomography)

from conftest import column, read_table


def readings_for(s: StokesVector, rng=None, sigma=0.0):
    out = {}
    for key, basis in (("HV", BASIS_HV), ("DA", BASIS_DA), ("RL", BASIS_RL)):
        pair = np.array(measure(s, basis))
        if rng is not None:
            pair = apply_detector_noise(pair, rng, sigma)
        out[key] = (float(pair[0]), float(pair[1]))
    return out


def outputs_for(m: np.ndarray) -> StokesVector:
    """The stack of states the process m makes of canonical_inputs(); a
    (n, 4, 4) stack of processes gives fields of shape (n, 4)."""
    return StokesVector(*np.moveaxis(m @ canonical_inputs().as_array(),
                                     -2, 0))


def stack_of(states) -> StokesVector:
    """One stack of the given states, in their order."""
    return StokesVector(*np.transpose([s.as_array() for s in states]))


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

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(0.0, 2.0)] * 6), min_size=1,
                    max_size=6))
    @example(intensities=[(0.0,) * 6])                       # s0 = 0
    @example(intensities=[(1.0, 0.0, 0.5, 0.5, 0.5, 0.5),
                          (0.4, -1e-3, 0.2, 0.2, 0.2, 0.2)])  # one < 0
    def test_scalar_call_gives_array_element_bits(self, intensities):
        # a stack's readings reconstruct each state to the bits of its own
        # scalar call, or raise the ValueError of its offending state
        columns = np.array(intensities).T
        stack = {key: (columns[2 * j], columns[2 * j + 1])
                 for j, key in enumerate(ANALYZERS)}
        singles = []
        for row in intensities:
            try:
                singles.append(state_tomography(
                    {key: (row[2 * j], row[2 * j + 1])
                     for j, key in enumerate(ANALYZERS)}))
            except ValueError as exc:
                with pytest.raises(ValueError,
                                   match=f"^{re.escape(str(exc))}$"):
                    state_tomography(stack)
                return
        batch = state_tomography(stack)
        for k, one in enumerate(singles):
            assert bits(one.stokes) == bits(batch.stokes, k)
            for name in ("degree_of_polarization", "s0_spread",
                         "consistent"):
                assert np.array(getattr(one, name)).tobytes() \
                    == np.array(getattr(batch, name)[k]).tobytes(), name


def bits(s: StokesVector, k=None) -> bytes:
    """The bytes of a state, or of element k of a stack of states."""
    fields = np.array([s.s0, s.s1, s.s2, s.s3], dtype=float)
    return (fields if k is None else fields[:, k]).tobytes()


def looped_tomography(cfg, t_store, eta, noise, shots, rep_tags):
    """A synthetic tomography as one loop over inputs and analyzers, built
    from the public scalar kernels: the reference for the array pass."""
    def seed(*tags):
        return np.random.SeedSequence(entropy=cfg.raw["seed"],
                                      spawn_key=rep_tags + tags)

    medium = cfg.medium
    tau_d = pulse_delay(cfg.control.omega_c, optical_depth(medium),
                        medium.gamma_total) \
        if cfg.raw["rotation.include_pulse_delay"] else 0.0
    rng = np.random.default_rng(seed(7))
    readings, outputs = [], []
    for k, values in enumerate(canonical_inputs().as_array().T):
        s_in = StokesVector(*values)
        if shots == 0:
            alpha = damping_factor(t_store,
                                   sigma_alpha_from_noise(noise.sigma_b))
            phi = rotation_angle(t_store, tau_d,
                                 faraday_frequency(noise.mean_bz))
            out = memory_mueller(MemoryParams(eta, alpha, phi)).m \
                @ s_in.as_array()
        else:
            out = sample_shots(poincare(s_in), t_store, tau_d, eta, noise,
                               shots, seed(k)).mean(axis=0)
        s_out = StokesVector(*(out * cfg.attenuation_factor()))
        pairs = {}
        for key, basis in ANALYZERS.items():
            pair = apply_detector_noise(
                measure(s_out, basis), rng, cfg.raw["detector.relative_sigma"],
                cfg.raw["detector.background"])
            pairs[key] = (float(pair[0]), float(pair[1]))
        readings.append([pairs[key] for key in ANALYZERS])
        outputs.append(state_tomography(pairs).stokes)
    params, residual = extract_memory_params(
        process_tomography(canonical_inputs(), stack_of(outputs)))
    return readings, outputs, params, residual


def outcome(fn, *args):
    """fn's result, or the type and text of the error it raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return fn(*args)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


class TestArrayPass:
    @settings(max_examples=150, deadline=None)
    @given(shots=st.sampled_from([0, 2, 50]),
           sigma=st.floats(0.0, 0.8), background=st.floats(0.0, 0.5),
           attenuated=st.booleans(), delayed=st.booleans(),
           preset=st.sampled_from(sorted(NOISE_PRESETS)),
           static_field=st.booleans(), t_store_us=st.floats(0.0, 2000.0),
           more_times_us=st.lists(st.floats(0.0, 2000.0), max_size=2),
           eta=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1))
    @example(shots=50, sigma=0.02, background=0.0, attenuated=False,
             delayed=False, preset="line-synced", static_field=True,
             t_store_us=1870.1448475755365, more_times_us=[],
             eta=0.5664437418921517,
             seed=12345)    # all shots alike: the clamp scales 3 states
    def test_matches_per_input_loop(self, shots, sigma, background,
                                    attenuated, delayed, preset,
                                    static_field, t_store_us, more_times_us,
                                    eta, seed):
        # the sweep over 1-3 storage times gives, at each time, the
        # per-input loop's bits: readings, output states, (eta, alpha, phi)
        # and residual, or the error of one of its times
        cfg = RunConfig.from_mapping({
            "detector.relative_sigma": sigma,
            "detector.background": background,
            "attenuation.enabled": attenuated,
            "rotation.include_pulse_delay": delayed,
            "noise.preset": "custom" if static_field else preset,
            "noise.sigma_b_mg": 0.0 if static_field else -1.0,
            "seed": seed})
        times = np.array([t_store_us, *more_times_us]) * 1e-6
        tags = [(4, 1, 2 + j) for j in range(len(times))]
        expected = [outcome(looped_tomography, cfg, t, eta, cfg.noise, shots,
                            tag) for t, tag in zip(times, tags)]
        got = outcome(commands._tomography_sweep, cfg, times, eta, cfg.noise,
                      shots, tags)
        errors = [e for e in expected if isinstance(e[0], type)]
        if errors:
            assert got in errors
            return
        got_readings, got_outputs, got_params, got_residual = got
        for j, (readings, outputs, params, residual) in enumerate(expected):
            assert got_readings[j].tobytes() == np.array(readings).tobytes()
            at_time = StokesVector(*got_outputs.as_array()[:, j])
            assert [bits(at_time, k) for k in range(4)] \
                == [bits(s) for s in outputs]
            assert (got_params.eta[j], got_params.alpha[j],
                    got_params.phi[j], got_residual[j]) \
                == (params.eta, params.alpha, params.phi, residual)


class TestProcessTomography:
    def test_exact_recovery_random_matrices(self, rng):
        for _ in range(20):
            m_true = rng.normal(size=(4, 4))
            recovered = process_tomography(canonical_inputs(),
                                           outputs_for(m_true)).m
            np.testing.assert_allclose(recovered, m_true, atol=1e-12)

    def test_structured_matrix(self):
        m_true = memory_mueller(MemoryParams(0.3, 0.9, 0.7)).m
        recovered = process_tomography(canonical_inputs(),
                                       outputs_for(m_true)).m
        np.testing.assert_allclose(recovered, m_true, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 5])
    def test_stack_of_other_than_4_states_rejected(self, n):
        states = StokesVector(*np.ones((4, n)))
        for args in ((states, states), (canonical_inputs(), states),
                     (states, canonical_inputs())):
            with pytest.raises(ValueError, match="needs 4 input/output"):
                process_tomography(*args)

    def test_condition_number_column(self, tmp_path):
        # computed once per run, from the canonical input matrix
        out = tmp_path / "tomo.csv"
        assert main(["tomography", "--out", str(out),
                     "--set", "tomography.repeats=3"]) == 0
        _, header, rows = read_table(str(out))
        cond = np.linalg.cond(canonical_inputs().as_array())
        assert len(rows) == 36
        assert column(header, rows, "condition_number") == [cond] * 36

    def test_ill_conditioned_inputs_rejected(self):
        h = StokesVector(1, 1, 0, 0)
        d = StokesVector(1, 0, 1, 0)
        r = StokesVector(1, 0, 0, 1)
        almost_h = StokesVector(1, 1, 1e-12, 0)
        states = stack_of((h, almost_h, d, r))
        with pytest.raises(np.linalg.LinAlgError):
            process_tomography(states, states)

    def test_noisy_recovery_unbiased(self):
        m_true = memory_mueller(MemoryParams(0.3, 0.9, 0.7)).m
        inputs = canonical_inputs()
        rng = np.random.default_rng(7)
        matrices = []
        for _ in range(1000):
            outputs = []
            for values in (m_true @ inputs.as_array()).T:
                s = StokesVector(*values)
                outputs.append(state_tomography(
                    readings_for(s, rng, sigma=0.01)).stokes)
            matrices.append(process_tomography(inputs, stack_of(outputs)).m)
        matrices = np.array(matrices)
        se = matrices.std(axis=0, ddof=1) / math.sqrt(len(matrices))
        pulls = np.abs(matrices.mean(axis=0) - m_true) \
            / np.where(se > 0, se, 1)
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
                process_tomography(canonical_inputs(), outputs_for(m)))
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
        with pytest.warns(StructureWarning):
            extract_memory_params(MuellerMatrix(bad))


RECORDS = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                    st.floats(-4.0, 4.0),
                    st.sampled_from([0.0, 1e-3, 0.05, 0.3, 2.0]),
                    st.lists(st.floats(-1.0, 1.0), min_size=16,
                             max_size=16))


def extract_with_warnings(m: MuellerMatrix):
    """extract_memory_params' result, or its ValueError's text, and the
    texts of the StructureWarnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = extract_memory_params(m)
        except ValueError as exc:
            result = str(exc)
    return result, [str(w.message) for w in caught
                    if w.category is StructureWarning]


class TestStackedProcess:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(RECORDS, min_size=1, max_size=6))
    @example(records=[(0.5, 0.9, 0.7, 0.0, [0.0] * 16),
                      (0.5, 0.9, 0.7, 2.0,
                       [-1.0] + [0.0] * 14 + [-1.0])])   # one eta <= 0
    @example(records=[(0.3, 0.9, 0.7, 0.3, [1.0] * 16),
                      (1.0, 1.0, 0.0, 0.0, [0.0] * 16),
                      (0.8, 0.2, -3.0, 0.3, [-1.0] * 16)])   # 2 deviate
    def test_scalar_call_gives_stack_element_bits(self, records):
        # memory_mueller, process_tomography, extract_memory_params and
        # average_process_fidelity give each record of a stack the bits of
        # its own scalar call; a stack raises its record's ValueError and
        # warns once per record that leaves the memory form
        etas, alphas, phis, scales, noise = (np.array(c)
                                             for c in zip(*records))
        singles = [memory_mueller(MemoryParams(*r[:3])).m for r in records]
        stack = memory_mueller(MemoryParams(etas, alphas, phis)).m
        assert stack.shape == (len(records), 4, 4)
        assert [m.tobytes() for m in stack] == [m.tobytes() for m in singles]

        measured = np.array(singles) \
            + scales[:, None, None] * noise.reshape(-1, 4, 4)
        single_m = [process_tomography(canonical_inputs(), outputs_for(m)).m
                    for m in measured]
        stack_m = process_tomography(canonical_inputs(),
                                     outputs_for(measured)).m
        assert [m.tobytes() for m in stack_m] \
            == [m.tobytes() for m in single_m]

        each = [extract_with_warnings(MuellerMatrix(m)) for m in single_m]
        got, caught = extract_with_warnings(MuellerMatrix(stack_m))
        errors = [result for result, _ in each if isinstance(result, str)]
        if errors:
            assert got == errors[0]
            return
        assert caught == [text for _, texts in each for text in texts]
        params, residual = got
        for k, ((one, one_residual), _) in enumerate(each):
            # the residual has np.linalg.norm's bits
            assert one_residual == np.linalg.norm(
                single_m[k] - memory_mueller(one).m) / one.eta
            assert np.array([one.eta, one.alpha, one.phi,
                             one_residual]).tobytes() \
                == np.array([params.eta[k], params.alpha[k], params.phi[k],
                             residual[k]]).tobytes()
        assert average_process_fidelity(params.alpha).tobytes() \
            == np.array([average_process_fidelity(one.alpha)
                         for (one, _), _ in each]).tobytes()

    def test_one_nonpositive_eta_raises_its_error(self):
        good = memory_mueller(MemoryParams(0.5, 0.9, 0.7)).m
        with pytest.raises(ValueError) as scalar:
            extract_memory_params(MuellerMatrix(-good))
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(scalar.value))}$"):
            extract_memory_params(MuellerMatrix(np.array([good, -good])))

    def test_one_warning_per_deviating_record(self):
        good = memory_mueller(MemoryParams(0.5, 0.9, 0.7)).m
        bad = good.copy()
        bad[0, 3] = 0.5
        for k in range(4):
            stack = MuellerMatrix(np.array([bad] * k + [good] * (4 - k)))
            _, caught = extract_with_warnings(stack)
            assert len(caught) == k


class TestNoiseScaling:
    def test_spread_linear_in_noise_and_bias_subdominant(self):
        # recovered (eta, alpha) scatter grows linearly with the detector
        # noise scale while the bias stays at the noise floor
        m_true = memory_mueller(MemoryParams(0.3, 0.9, 0.7)).m
        inputs = canonical_inputs()
        states = outputs_for(m_true)
        ports = np.array([measure(states, basis)
                          for basis in ANALYZERS.values()])
        epsilons = (0.01, 0.025, 0.05)
        n = 1500
        spreads = {"eta": [], "alpha": []}
        for eps in epsilons:
            rng = np.random.default_rng(2024)
            # drawn repetition- then input-major, as (n, 4, 3, 2)
            readings = apply_detector_noise(
                np.broadcast_to(ports.transpose(2, 0, 1), (n, 4, 3, 2)),
                rng, eps)
            outputs = state_tomography(
                dict(zip(ANALYZERS, readings.transpose(2, 3, 0, 1))))
            outputs = outputs.stokes.as_array()
            etas, alphas = [], []
            for rep in range(n):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    params, _ = extract_memory_params(process_tomography(
                        inputs, StokesVector(*outputs[:, rep])))
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
