import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from becmemory.polarization import (DOP_TOLERANCE, PoincareVector,
                                    StokesVector, clamp_physical, fidelity,
                                    measure, poincare,
                                    stokes_from_intensities)
from becmemory.tomography import canonical_inputs

from conftest import random_physical_stokes


class TestStokesFromIntensities:
    def test_pure_h(self):
        s = stokes_from_intensities([[1, 0], [0.5, 0.5], [0.5, 0.5]])
        assert (s.s0, s.s1, s.s2, s.s3) == (1.0, 1.0, 0.0, 0.0)

    def test_pure_r(self):
        # right-circular light drives the sigma+ transition
        s = stokes_from_intensities([[0.5, 0.5], [0.5, 0.5], [1, 0]])
        assert (s.s0, s.s1, s.s2, s.s3) == (1.0, 0.0, 0.0, 1.0)

    def test_unpolarized(self):
        s = stokes_from_intensities([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        assert (s.s0, s.s1, s.s2, s.s3) == (1.0, 0.0, 0.0, 0.0)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            stokes_from_intensities([[-0.1, 0.5], [0.5, 0.5], [0.5, 0.5]])

    def test_s0_averages_the_three_sums(self):
        s = stokes_from_intensities([[0.9, 0.0], [0.5, 0.5], [0.4, 0.6]])
        assert s.s0 == pytest.approx((0.9 + 1.0 + 1.0) / 3.0, rel=1e-15)

    @pytest.mark.parametrize("shape", [(3,), (2, 2), (3, 3), (4, 2), (2, 3)])
    def test_other_than_three_pairs_rejected(self, shape):
        with pytest.raises(ValueError, match=r"shape \(\.\.\., 3, 2\)"):
            stokes_from_intensities(np.full(shape, 0.5))


class TestPoincare:
    def test_normalization(self):
        u = poincare(StokesVector(2, 2, 0, 0))
        assert (u.u1, u.u2, u.u3) == (1.0, 0.0, 0.0)

    def test_circular(self):
        u = poincare(StokesVector(1, 0, 0, -1))
        assert (u.u1, u.u2, u.u3) == (0.0, 0.0, -1.0)

    def test_partially_polarized(self):
        u = poincare(StokesVector(4, 0, 2, 0))
        assert (u.u1, u.u2, u.u3) == (0.0, 0.5, 0.0)

    def test_zero_intensity_rejected(self):
        with pytest.raises(ValueError):
            poincare(StokesVector(0, 0, 0, 0))

    def test_stack(self):
        u = poincare(StokesVector(np.array([2.0, 1.0]), np.array([2.0, 0.0]),
                                  np.zeros(2), np.array([0.0, -1.0])))
        assert u.as_array().tolist() == [[1.0, 0.0], [0.0, 0.0], [0.0, -1.0]]

    @pytest.mark.parametrize("s0", [0.0, -1.0])
    def test_stack_with_one_nonpositive_intensity_rejected(self, s0):
        with pytest.raises(ValueError,
                           match="^Poincare vector undefined for s0 <= 0$"):
            poincare(StokesVector(np.array([1.0, s0]), np.array([1.0, 0.0]),
                                  np.zeros(2), np.zeros(2)))


class TestFidelity:
    def test_identical_states(self):
        u = PoincareVector(1, 0, 0)
        assert fidelity(u, u) == 1.0

    def test_orthogonal_states(self):
        assert fidelity(PoincareVector(1, 0, 0),
                        PoincareVector(-1, 0, 0)) == 0.0

    def test_depolarized_output(self):
        assert fidelity(PoincareVector(0, 0, 1),
                        PoincareVector(0, 0, 0)) == 0.5

    def test_impure_input_rejected(self):
        with pytest.raises(ValueError):
            fidelity(PoincareVector(0.5, 0, 0), PoincareVector(1, 0, 0))

    def test_symmetric_for_unit_vectors(self, rng):
        for _ in range(50):
            a, b = rng.normal(size=(2, 3))
            a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
            ua, ub = PoincareVector(*a), PoincareVector(*b)
            assert fidelity(ua, ub) == pytest.approx(fidelity(ub, ua),
                                                     abs=1e-15)
            assert fidelity(ua, ua) == pytest.approx(1.0, abs=1e-12)

    def test_stack(self):
        # a stack of inputs gives each pair its scalar call's bits
        u = poincare(canonical_inputs())
        assert u.norm.tolist() == [1.0] * 4
        v = PoincareVector(*u.as_array()[::-1])
        for out in (u, v):
            each = [fidelity(PoincareVector(*a), PoincareVector(*b))
                    for a, b in zip(u.as_array().T, out.as_array().T)]
            assert fidelity(u, out).tobytes() == np.array(each).tobytes()

    def test_stack_with_one_impure_input_rejected(self):
        u = PoincareVector(np.array([1.0, 0.5]), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="must be pure"):
            fidelity(u, u)


class TestMeasure:
    def test_h_in_hv(self):
        assert measure(StokesVector(1, 1, 0, 0))[0].tolist() == [1.0, 0.0]

    def test_h_in_da_is_unbiased(self):
        assert measure(StokesVector(1, 1, 0, 0))[1].tolist() == [0.5, 0.5]

    def test_linearity(self):
        plus, minus = measure(StokesVector(1, 0, 0, 0.6))[2]
        assert plus == pytest.approx(0.8, rel=1e-15)
        assert minus == pytest.approx(0.2, rel=1e-15)

    def test_ports_sum_to_s0(self, rng):
        # i_minus is defined as the complement, so the sum is exact up to
        # one rounding ulp of s0
        for row in random_physical_stokes(rng, 200):
            s = StokesVector(*row)
            for plus, minus in measure(s):
                assert plus + minus == pytest.approx(s.s0, rel=5e-16)
                assert plus >= 0 and minus >= 0


class TestRoundTrip:
    def canonical_states(self):
        return [StokesVector(1, 1, 0, 0), StokesVector(1, 0, 1, 0),
                StokesVector(1, 0, 0, 1), StokesVector(1, 0, 0, -1),
                StokesVector(1, 0, 0, 0)]

    def reconstruct(self, s):
        return stokes_from_intensities(measure(s))

    def test_canonical_states_exact(self):
        for s in self.canonical_states():
            r = self.reconstruct(s)
            assert r.as_array().tolist() == s.as_array().tolist()

    def test_random_states(self, rng):
        # cancellation in i_plus - i_minus amplifies single-ulp rounding,
        # hence the absolute floor
        for row in random_physical_stokes(rng, 300):
            s = StokesVector(*row)
            r = self.reconstruct(s)
            np.testing.assert_allclose(r.as_array(), s.as_array(),
                                       rtol=1e-12, atol=1e-14)


class TestPhysicalityClamp:
    def test_tiny_violation_clamped(self):
        s = StokesVector(1.0, 1.0 + 4e-11, 0.0, 0.0)
        clamped = clamp_physical(s)
        assert clamped.s1 <= 1.0
        assert clamped.s1 == pytest.approx(1.0, abs=1e-10)

    def test_large_violation_rejected(self):
        with pytest.raises(ValueError):
            clamp_physical(StokesVector(1.0, 1.01, 0.0, 0.0))

    def test_negative_s0_rejected(self):
        with pytest.raises(ValueError):
            clamp_physical(StokesVector(-1.0, 0.0, 0.0, 0.0))

    def test_degree_of_polarization(self):
        assert StokesVector(2, 0, 1, 0).degree_of_polarization == 0.5

    def test_degree_of_polarization_of_a_stack(self):
        s = StokesVector(np.array([2.0, 4.0]), np.zeros(2),
                         np.array([1.0, 4.0]), np.zeros(2))
        assert s.degree_of_polarization.tolist() == [0.5, 1.0]

    @pytest.mark.parametrize("s0", [0.0, -1.0])
    def test_degree_of_polarization_of_a_stack_with_one_nonpositive_s0(
            self, s0):
        s = StokesVector(np.array([2.0, s0]), np.zeros(2), np.ones(2),
                         np.zeros(2))
        with pytest.raises(
                ValueError,
                match="^degree of polarization undefined for s0 <= 0$"):
            s.degree_of_polarization


# one state: s0, a direction and |s_vec|/s0 (|s_vec| itself at s0 = 0), from
# inside the sphere to just beyond the clamp's tolerance
STATES = st.tuples(
    st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda u: np.linalg.norm(u) > 1e-3),
    st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 1.0 + DOP_TOLERANCE)))


def stokes_rows(states):
    """The (s0, s1, s2, s3) rows of the drawn states."""
    rows = []
    for s0, u, dop in states:
        scale = (s0 or 1.0) * dop / np.linalg.norm(u)
        rows.append([s0, u[0] * scale, u[1] * scale, u[2] * scale])
    return rows


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def fields(result, k=None):
    """The bytes of a state or of its port readings, or of element k of
    their stack."""
    if isinstance(result, StokesVector):
        values = result.as_array()
        return (values if k is None else values[:, k]).tobytes()
    return (result if k is None else result[k]).tobytes()


def broadcast_outcome(fn, each_args, stack_args):
    """fn on a stack, checked against fn on each element: the same bits, or
    the ValueError of the first element that raises (then None)."""
    each = [outcome(fn, *args) for args in each_args]
    stack = outcome(fn, *stack_args)
    errors = [e for e in each if isinstance(e, str)]
    if errors:
        assert stack == errors[0]
        return None
    for k, one in enumerate(each):
        assert fields(one) == fields(stack, k), (fn.__name__, k)
    return stack


class TestBroadcast:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(STATES, min_size=1, max_size=6))
    @example(states=[(1.0, (1.0, 0.0, 0.0), 1.0 + 2e-10)])   # clamped
    @example(states=[(0.0, (0.3, 0.4, 0.5), 0.0),
                     (2.0, (0.0, 1.0, 0.0), 0.5)])          # s0 = 0
    @example(states=[(1.0, (1.0, 0.0, 0.0), 0.9),
                     (1.0, (0.0, 0.6, 0.8), 1.0 + 1e-6),
                     (3.0, (0.0, 0.0, 1.0), 1.0)])          # one beyond
    def test_scalar_call_gives_array_element_bits(self, states):
        # clamping and measuring a stack of states, and reconstructing it
        # from its port intensities, give each state's scalar bits
        rows = stokes_rows(states)
        singles = [StokesVector(*row) for row in rows]
        stack = StokesVector(*np.array(rows).T)
        if broadcast_outcome(clamp_physical, [(s,) for s in singles],
                             (stack,)) is None:
            return
        ports = broadcast_outcome(measure, [(s,) for s in singles],
                                  (stack,))
        if ports is not None:
            broadcast_outcome(stokes_from_intensities,
                              [(p,) for p in ports], (ports,))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(STATES, min_size=1, max_size=6))
    @example(states=[(1.0, (1.0, 0.0, 0.0), 1.0 + 2e-10),
                     (1.0, (0.0, 0.6, 0.8), 1.0 + 1e-6)])
    def test_is_physical_is_the_clamps_test(self, states):
        # per state, a stack's is_physical is its scalar call's, and true
        # exactly where clamp_physical accepts the state
        rows = stokes_rows(states)
        singles = [StokesVector(*row) for row in rows]
        expected = [bool(s.is_physical()) for s in singles]
        assert StokesVector(*np.array(rows).T).is_physical().tolist() \
            == expected
        assert expected == [not isinstance(outcome(clamp_physical, s), str)
                            for s in singles]

    def test_one_negative_intensity_raises_its_error(self):
        good = np.full(3, 0.5)
        bad = np.array([0.5, -1e-3, 0.5])
        with pytest.raises(ValueError) as scalar:
            stokes_from_intensities([[0.5, -1e-3], [0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(scalar.value))}$"):
            stokes_from_intensities(np.moveaxis(
                np.array([[good, bad], [good, good], [good, good]]), -1, 0))
