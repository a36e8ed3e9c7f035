"""numpy erf, i0e, quad and pchip against scipy, which is only a test oracle
here, gauss_legendre against numpy's eigenvalue-based leggauss, and the
prefit oracle's bracketed maximizer on a smooth peak and on a jump."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad_vec
from scipy.interpolate import PchipInterpolator
from scipy.special import erf as scipy_erf
from scipy.special import i0e as scipy_i0e

from becmemory import efficiency, numerics
from becmemory.cli import main
from becmemory.efficiency import (PulseParams, _eta_on_depth, _radial_line,
                                  _radial_weight, transverse_average_eta)
from becmemory.eit import MediumParams
from becmemory.numerics import erf, gauss_legendre, i0e, pchip, quad
from prefit_oracle import maximize

SPECIAL = [0.0, -0.0, 1.0, -1.0, 6.0, -6.0, 8.0, -8.0, 1e-300, -1e-300,
           math.inf, -math.inf, math.nan]


def test_erf_within_one_ulp_of_scipy():
    edges = np.array([1.0, 6.0, 8.0])
    x = np.concatenate([
        np.linspace(-10.0, 10.0, 400_001), np.geomspace(1e-300, 10.0, 20_000),
        -np.geomspace(1e-300, 10.0, 20_000), np.nextafter(edges, 0.0),
        np.nextafter(edges, 10.0), -edges, SPECIAL])
    got, ref = erf(x), scipy_erf(x)
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    assert np.array_equal(np.signbit(got), np.signbit(ref))
    finite = ~np.isnan(ref)
    ulp = np.spacing(np.abs(ref[finite]))
    assert np.all(np.abs(got[finite] - ref[finite]) <= ulp)


@pytest.mark.parametrize("x", SPECIAL)
def test_erf_scalar_in_scalar_out(x):
    got, ref = erf(x), scipy_erf(x)
    assert np.ndim(got) == 0 and isinstance(got, float)
    assert got == ref or (math.isnan(got) and math.isnan(ref))


def test_i0e_equals_scipy():
    x = np.concatenate([np.linspace(-1000.0, 1000.0, 200_001),
                        np.geomspace(1e-300, 1e300, 2_000),
                        [0.0, -0.0, 8.0, -8.0, math.inf, -math.inf,
                         math.nan]])
    assert np.array_equal(i0e(x), scipy_i0e(x), equal_nan=True)
    assert isinstance(i0e(3.0), float) and i0e(3.0) == scipy_i0e(3.0)


def test_i0_coefficients_are_numpys():
    # numpy's copies are private names, which a numpy release may drop
    try:
        from numpy.lib._function_base_impl import _chbevl, _i0A, _i0B
    except ImportError:
        pytest.skip("numpy's Cephes i0 coefficients are not importable")
    assert numerics._I0_A == tuple(_i0A) and numerics._I0_B == tuple(_i0B)
    x = np.linspace(0.0, 100.0, 10_001)
    low, high = x[x <= 8.0], x[x > 8.0]
    ref = np.concatenate([_chbevl(low / 2.0 - 2.0, _i0A),
                          _chbevl(32.0 / high - 2.0, _i0B) / np.sqrt(high)])
    assert i0e(x).tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [1, 2, 5, 96])
def test_gauss_legendre_matches_leggauss(n):
    x, w = gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - ref_x)) <= 4e-16
    assert np.max(np.abs(w / ref_w - 1.0)) <= 2e-12
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(np.sum(w) - 2.0) <= 1e-14
    # exact for every even power up to degree 2n - 1
    for k in range(n):
        assert abs(w @ x**(2 * k) - 2.0 / (2 * k + 1)) <= 1e-14


@settings(max_examples=20, deadline=None)
@given(d_p=st.floats(1.0, 1000.0), waist_um=st.floats(0.05, 100.0),
       tau_ns=st.floats(20.0, 500.0), t0_us=st.floats(-0.5, 2.0),
       omega_mhz=st.tuples(st.floats(1.0, 40.0), st.floats(1.0, 60.0)),
       n_omega=st.integers(1, 40))
def test_quad_agrees_with_quad_vec(d_p, waist_um, tau_ns, t0_us, omega_mhz,
                                   n_omega):
    medium = MediumParams(atom_number=1.2e6, r_x=7e-6, r_y=25e-6, r_z=25e-6,
                          gamma_total=1.0 / 26e-9, branching_ratio=1 / 12,
                          lambda_p=795e-9).rescaled_to_depth(d_p)
    pulse = PulseParams(tau_p=tau_ns * 1e-9, t0=t0_us * 1e-6,
                        waist=waist_um * 1e-6)
    lo = omega_mhz[0]
    omegas = 2e6 * math.pi * np.linspace(lo, lo + omega_mhz[1], n_omega)

    def integrand(r):
        d_p, transit = _radial_line(r, medium)
        return _radial_weight(r, medium.r_x, medium.r_y, pulse.waist) \
            * _eta_on_depth(d_p, omegas, pulse.t0, pulse.tau_p,
                            medium.gamma_total, transit)

    ref, _ = quad_vec(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-10,
                      limit=200)
    got = transverse_average_eta(omegas, pulse, medium)
    # the same subdivisions give the same sums to rounding, far inside the
    # goal; stopping at the goal instead of goal/8, or splitting other
    # intervals, moves some values by 1e-3 to 0.4 of it
    goal = 1e-13 + 1e-10 * np.abs(ref)
    assert np.all(np.abs(got - ref) <= 1e-4 * goal)


def test_scalar_integrand_gives_a_float():
    value, err = quad(lambda x: np.exp(-x * x), 0.0, 2.0)
    assert type(value) is float and type(err) is float
    assert value == pytest.approx(0.5 * math.sqrt(math.pi) * math.erf(2.0),
                                  rel=1e-12)
    # the nodes sit on the last axis, so a length-1 value keeps its axis
    single, _ = quad(lambda x: np.exp(-x * x)[None], 0.0, 2.0)
    grid, _ = quad(lambda x: np.ones((2, 3, 1)) * x, 0.0, 2.0)
    assert single.shape == (1,) and grid.shape == (2, 3)
    np.testing.assert_allclose(grid, 2.0, rtol=1e-14)


@pytest.mark.parametrize("limit", [1, 2, 10, 37])
def test_limit_caps_the_interval_count(limit):
    nodes = []

    def step(x):
        nodes.append(x.size)
        return np.where(x < 1.0 / 3.0, 0.0, 1.0)

    _, err = quad(step, 0.0, 1.0, epsabs=0.0, epsrel=1e-14, limit=limit)
    # 21 nodes per interval: the first interval, then both halves of each
    # of the limit - 1 splits
    assert sum(nodes) == 21 * (2 * limit - 1)
    assert err > 1e-14


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_integrand_stops_after_one_round(bad):
    calls = []

    def f(x):
        calls.append(x.size)
        return np.where(x > 0.7, bad, x)

    value, err = quad(f, 0.0, 1.0, limit=10_000)
    assert not math.isfinite(value) and not math.isfinite(err)
    assert len(calls) == 2


def test_fig7_with_non_finite_average_exits_3(monkeypatch, capsys,
                                              tmp_path):
    # at a 1e-153 um waist the radial weight is inf * 0 on most nodes
    calls = []

    def counting(f, *args, **kwargs):
        return quad(lambda r: (calls.append(r.size), f(r))[1], *args,
                    **kwargs)

    monkeypatch.setattr(efficiency, "quad", counting)
    out = tmp_path / "fig7.csv"
    assert main(["fig7", "--out", str(out), "--set", "fig7.n_points=5",
                 "--set", "pulse.waist_um=1e-153"]) == 3
    assert "non-finite value" in capsys.readouterr().err
    assert len(calls) == 2 and not out.exists()


class TestMaximize:
    @pytest.mark.parametrize("f, peak", [
        (lambda x: -(x - 0.3)**2, 0.3),
        (lambda x: math.sin(3.0 * x) * math.exp(-x), math.atan(3.0) / 3.0),
        (lambda x: -math.cosh(4.0 * (x - 0.9)), 0.9)])
    @pytest.mark.parametrize("start", [0.05, 0.5, 0.95])
    def test_smooth_peak_to_the_tolerance(self, f, peak, start):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        found = maximize(counted, 0.0, 1.0, start, f(start), 1e-7)
        assert abs(found - peak) <= 1e-7
        # a golden-section search takes about 35 evaluations to 1e-7
        assert start not in calls and len(calls) <= 20
        assert all(0.0 < x < 1.0 for x in calls)

    @pytest.mark.parametrize("edge", [0.7, 1.0])
    def test_narrows_onto_a_jump(self, edge):
        # f rises to the jump at edge, the bracket's end for edge = 1, and
        # drops there: the largest value lies at the jump itself
        def f(x):
            return 1.0 + x if x < edge else 0.0

        coarse = maximize(f, 0.0, 1.0, 0.5, f(0.5), 1e-7)
        assert edge - 1e-7 <= coarse < edge
        fine = maximize(f, 0.0, 1.0, 0.5, f(0.5), 1e-7, 1e-12, 1e-14)
        assert edge - 4e-12 <= fine < edge


@st.composite
def pchip_tables(draw):
    """(x, y, t): 2 to 40 nodes at uneven gaps, and points t on the nodes,
    between them, just off the table's ends and at nan and +-inf.  Half the
    tables take y from four levels, so values repeat and segments are flat;
    the others climb, fall or stay flat in runs of up to 8 steps."""
    n = draw(st.integers(2, 40))
    gaps = draw(st.lists(st.floats(0.01, 10.0), min_size=n - 1,
                         max_size=n - 1))
    x = draw(st.floats(-100.0, 100.0)) + np.cumsum([0.0, *gaps])
    if draw(st.booleans()):
        y = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                                   min_size=n, max_size=n)))
    else:
        steps = []
        while len(steps) < n - 1:
            sign = draw(st.sampled_from([-1.0, 0.0, 1.0]))
            steps += [sign * draw(st.floats(1e-3, 1.0))
                      for _ in range(draw(st.integers(1, 8)))]
        y = draw(st.floats(-10.0, 10.0)) + np.cumsum([0.0, *steps[:n - 1]])
    inside = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1,
                                    max_size=50)))
    t = np.concatenate([x, x[0] + inside * (x[-1] - x[0]),
                        np.nextafter(x[[0, -1]], [-math.inf, math.inf]),
                        x[[0, -1]] + [-1.0, 1.0], [math.nan, -math.inf,
                                                   math.inf]])
    return x, y, t


def pchip_deviations(x, y, t):
    """Largest |pchip - PchipInterpolator(extrapolate=False)| at t, over
    max |y| in value and over the largest |secant| in derivative; each is
    NaN exactly where scipy's is, and pchip warns of nothing."""
    ref = PchipInterpolator(x, y, extrapolate=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pchip(x, y)(t)
    scales = np.max(np.abs(y)), np.max(np.abs(np.diff(y) / np.diff(x)))
    deviations = []
    for value, want, scale in zip(got, (ref(t), ref.derivative()(t)),
                                  scales):
        assert np.array_equal(np.isnan(value), np.isnan(want))
        on = ~np.isnan(want)
        error = np.max(np.abs(value[on] - want[on]), initial=0.0)
        deviations.append(error / scale if scale else error)
    return deviations


@settings(max_examples=200, deadline=None)
@given(pchip_tables())
def test_pchip_matches_scipy(table):
    value, slope = pchip_deviations(*table)
    assert value <= 1e-13 and slope <= 1e-13


def test_two_node_pchip_is_a_line():
    value, slope = pchip([1.0, 3.0], [2.0, 6.0])(np.array([1.0, 2.0, 3.0]))
    assert value.tolist() == [2.0, 4.0, 6.0] and slope.tolist() == [2.0] * 3


@pytest.mark.parametrize("x", [[], [1.0], [0.0, 1.0, 1.0], [0.0, 2.0, 1.0]])
def test_pchip_rejects_short_or_unordered_tables(x):
    with pytest.raises(ValueError, match="strictly increasing"):
        pchip(x, np.arange(len(x), dtype=float))
