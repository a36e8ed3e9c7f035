"""numpy erf, i0e and quad against scipy, which is only a test oracle here."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad_vec
from scipy.special import erf as scipy_erf
from scipy.special import i0e as scipy_i0e

from becmemory import efficiency
from becmemory.cli import main
from becmemory.efficiency import (PulseParams, _eta_on_depth, _radial_line,
                                  _radial_weight, transverse_average_eta)
from becmemory.eit import MediumParams
from becmemory.numerics import erf, i0e, quad

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
