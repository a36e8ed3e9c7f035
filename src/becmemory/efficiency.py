"""Write-read efficiency estimate and its decay with storage time.

The efficiency of one storage cycle is modeled as the product of a
compression factor (fraction of the pulse inside the medium when the control
beam switches off) and a transmission factor (fraction of the pulse spectrum
passing the EIT window).  Both depend on the control Rabi frequency through
the slow-light delay and the transparency width, producing a pronounced
optimum.  Averaging over the transverse beam profile accounts for the
inhomogeneous optical depth of the cloud.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import (BOLTZMANN, D1_WAVELENGTH, HBAR, RB87_MASS,
                        SPEED_OF_LIGHT)
from .eit import (MediumParams, optical_depth, pulse_delay,
                  transparency_width)
from .memory import damping_factor
from .numerics import ERF_SATURATION, erf, gauss_legendre, i0e, quad

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PulseParams:
    """Incoming probe pulse: Gaussian intensity envelope and beam waist."""

    tau_p: float            # temporal rms width of the intensity, s
    t0: float               # control switch-off time after the peak entered, s
    waist: float = 8e-6     # 1/e^2 intensity radius, m

    def __post_init__(self):
        if self.tau_p <= 0:
            raise ValueError("tau_p must be > 0")
        if self.waist <= 0:
            raise ValueError("waist must be > 0")


@dataclass(frozen=True)
class EfficiencyResult:
    """Compression and transmission factors and their product."""

    eta_comp: float
    eta_trans: float
    eta_total: float


def eta_comp(t0, tau_p, tau_d, transit=0.0):
    """Fraction of the pulse inside the medium at control switch-off.

    Equals the integral of the normalized Gaussian envelope over the
    in-medium window (t0 - tau_d - transit, t0), written with error
    functions; ``transit`` is the vacuum flight time L/c through the medium.
    All arguments broadcast.
    """
    if np.any(tau_p <= 0):
        raise ValueError("tau_p must be > 0")
    a = t0 / (SQRT2 * tau_p)
    b = (t0 - tau_d - transit) / (SQRT2 * tau_p)
    return 0.5 * (erf(a) - erf(b))


def eta_trans(tau_p, delta_omega_trans):
    """Pulse energy fraction transmitted through the Gaussian EIT window."""
    if np.any(tau_p <= 0) or np.any(delta_omega_trans <= 0):
        raise ValueError("tau_p and delta_omega_trans must be > 0")
    # np.power, not **: numpy's scalar power can differ in the last bit
    # from its array loop, and a scalar call must match the array's element
    return np.power(1.0 + 2.0 / (tau_p * delta_omega_trans)**2, -0.5)


def _factors(d_p, omega_c, t0, tau_p: float, gamma: float, transit=0.0):
    """(eta_comp, eta_trans) on probe lines of optical depth ``d_p``.

    ``d_p``, ``omega_c``, ``t0`` and ``transit`` broadcast against each
    other; a line with d_p <= 0 crosses no medium and gives (0, 1).
    """
    d_p = np.asarray(d_p, float)
    pos = d_p > 0
    dp_safe = np.where(pos, d_p, 1.0)
    tau_d = pulse_delay(omega_c, dp_safe, gamma)
    width = transparency_width(omega_c, gamma, dp_safe)
    e_c = eta_comp(t0, tau_p, tau_d, transit)
    e_t = eta_trans(tau_p, width)
    # [()] turns a 0-d result back into a scalar and leaves arrays alone
    return np.where(pos, e_c, 0.0)[()], np.where(pos, e_t, 1.0)[()]


def _eta_on_depth(d_p, omega_c, t0, tau_p: float, gamma: float,
                  transit=0.0):
    """Broadcast eta_comp * eta_trans as a function of optical depth."""
    e_c, e_t = _factors(d_p, omega_c, t0, tau_p, gamma, transit)
    return e_c * e_t


def eta_total(omega_c, pulse: PulseParams, medium: MediumParams,
              x=0.0, y=0.0, include_transit: bool = True) -> EfficiencyResult:
    """Single-cycle efficiency for the probe line through (x, y).

    ``omega_c`` (a Rabi frequency in rad/s), ``x`` and ``y`` broadcast, and
    every field has their shape.  Outside the cloud the efficiency is zero
    by definition.
    """
    d_p = optical_depth(medium, x, y)
    transit = medium.chord_length(x, y) / SPEED_OF_LIGHT if include_transit \
        else 0.0
    e_c, e_t = _factors(d_p, omega_c, pulse.t0, pulse.tau_p,
                        medium.gamma_total, transit)
    return EfficiencyResult(e_c, e_t, e_c * e_t)


def _radial_weight(r, r_x: float, r_y: float, waist: float):
    """Angular integral of the Gaussian beam weight on the scaled ellipse.

    With x = Rx r cos(phi), y = Ry r sin(phi) the azimuthal integral of
    (2/pi w^2) exp(-2(x^2+y^2)/w^2) is analytic and leaves
    (4 Rx Ry / w^2) r exp(-(a+b)/2) I0((a-b)/2), a = 2 Rx^2 r^2/w^2,
    b = 2 Ry^2 r^2/w^2; the exponentially scaled Bessel function keeps the
    product well-conditioned for strongly unequal radii.
    """
    r = np.asarray(r, float)
    a = 2.0 * (r_x * r / waist)**2
    b = 2.0 * (r_y * r / waist)**2
    half_diff = 0.5 * (a - b)
    return (4.0 * r_x * r_y / waist**2) * r \
        * np.exp(-0.5 * (a + b) + np.abs(half_diff)) * i0e(half_diff)


def _radial_line(r, medium: MediumParams):
    """Optical depth and vacuum transit time on the line at scaled radius r.

    The scaled radius r in [0, 1] labels the ellipse x = Rx r cos(phi),
    y = Ry r sin(phi), on which both are constant; r = 0 is the axis.
    """
    x = medium.r_x * np.asarray(r, float)
    return optical_depth(medium, x), medium.chord_length(x) / SPEED_OF_LIGHT


def transverse_average_eta(omega_c, pulse: PulseParams, medium: MediumParams):
    """Efficiency averaged over the transverse probe intensity profile.

    ``omega_c`` is a Rabi frequency or an array of them; the result has its
    shape.  The weighted average reduces to a single radial integral after
    the analytic angular reduction, evaluated with adaptive quadrature for
    all Rabi frequencies at once; the beam has the pulse's waist.  The probe
    weight falling outside the cloud contributes zero efficiency.

    Unlike the other kernels, a scalar call need not give the bits of its
    element in an array call: quad refines one set of intervals for the
    whole batch, so the two agree only to the quadrature tolerance.
    """
    omega_c = np.asarray(omega_c, float)[..., None]   # radial nodes last

    def integrand(r):
        d_p, transit = _radial_line(r, medium)
        return _radial_weight(r, medium.r_x, medium.r_y, pulse.waist) \
            * _eta_on_depth(d_p, omega_c, pulse.t0, pulse.tau_p,
                            medium.gamma_total, transit)

    value, _ = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-10,
                    limit=200)
    return value


@dataclass(frozen=True)
class OptimizeEtaResult:
    """Location and value of the efficiency optimum."""

    omega_c: float
    t0: float
    eta: float
    on_boundary: bool


DEFAULT_OMEGA_BOUNDS = (2.0 * math.pi * 1e6, 2.0 * math.pi * 100e6)
N_RADIAL = 96        # Gauss-Legendre nodes of optimize_eta's radial line
REFINE_TOL = 1e-4    # relative eta gain below which a refinement pass is stale
BLOCK_CELLS = 2**17  # most (Omega_c, t0, node) cells per objective block


def _t0_horizon(omega_c, d_p, transit, tau_p: float, gamma: float) -> float:
    """Switch-off time past which eta_comp is exactly 0 on every line:
    both its erf arguments are then >= ERF_SATURATION (erf is exactly 1),
    with a relative slack for their rounding."""
    tau_d = pulse_delay(np.min(omega_c), np.max(d_p), gamma)
    return (tau_d + np.max(transit) + ERF_SATURATION * SQRT2 * tau_p) \
        * (1.0 + 1e-9)


def optimize_eta(medium: MediumParams, pulse: PulseParams,
                 omega_bounds: tuple[float, float] = DEFAULT_OMEGA_BOUNDS,
                 t0_bounds: tuple[float, float] | None = None,
                 averaged: bool = False,
                 grid_shape: tuple[int, int] = (200, 200),
                 include_transit: bool = True) -> OptimizeEtaResult:
    """Maximize the efficiency over control Rabi frequency and switch-off time.

    A log-linear grid search (log in omega_c, linear in t0) locates the
    basin; a shrinking-stencil refinement climbs from it until 10 passes in
    a row each gain less than REFINE_TOL relative (at most 60 passes).
    That bounds no distance to the optimum: a small gain moves the stencil
    without halving it, so the search can stop with its t0 step wider than
    the pulse (the strict xfail test_averaged_optimum_never_beats_on_axis
    pins such a stop).  With ``averaged``
    the efficiency averaged over the pulse's beam profile is optimized on
    N_RADIAL Gauss-Legendre nodes of the radial line; otherwise the on-axis
    value, the same objective on the single node r = 0.  The default t0
    range is [0, 5 tau_p + tau_d(omega_min)] at the on-axis depth.

    A maximum sitting on the search boundary is flagged.
    """
    om_lo, om_hi = omega_bounds
    if om_lo <= 0 or om_hi < om_lo:
        raise ValueError("invalid omega_c bounds")
    if t0_bounds is None:
        t0_bounds = (0.0, 5.0 * pulse.tau_p + pulse_delay(
            om_lo, optical_depth(medium), medium.gamma_total))
    t0_lo, t0_hi = t0_bounds
    if t0_hi < t0_lo:
        raise ValueError("invalid t0 bounds")

    if averaged:
        nodes, gl_weights = gauss_legendre(N_RADIAL)
        r = 0.5 * (nodes + 1.0)
        weights = 0.5 * gl_weights * _radial_weight(r, medium.r_x,
                                                    medium.r_y, pulse.waist)
    else:
        r, weights = np.zeros(1), np.ones(1)
    d_p, transit = _radial_line(r, medium)
    if not include_transit:
        transit = 0.0

    def objective(omegas, t0s):
        # Blocks of Omega_c rows: the full (Omega_c, t0, node) cube of a
        # 200 x 200 grid would hold 31 MB per temporary.  The (ascending)
        # t0 columns past a block's horizon are left 0.
        rows = max(1, BLOCK_CELLS // (t0s.size * r.size))
        values = np.zeros((omegas.size, t0s.size))
        for i in range(0, omegas.size, rows):
            block = omegas[i:i + rows]
            live = np.searchsorted(t0s, _t0_horizon(
                block, d_p, transit, pulse.tau_p, medium.gamma_total),
                side="right")
            values[i:i + rows, :live] = _eta_on_depth(
                d_p, block[:, None, None], t0s[:live, None], pulse.tau_p,
                medium.gamma_total, transit) @ weights
        return values

    n_om, n_t0 = grid_shape
    omegas = np.geomspace(om_lo, om_hi, max(n_om, 1))
    t0s = np.linspace(t0_lo, t0_hi, max(n_t0, 1))
    values = objective(omegas, t0s)
    i, j = np.unravel_index(np.argmax(values), values.shape)
    best_log_om, best_t0, best = math.log(omegas[i]), t0s[j], values[i, j]

    # Shrinking-stencil refinement in (log omega_c, t0): each pass moves to
    # the best point of a 5x5 stencil, or halves the stencil if none beats
    # the incumbent; a gain below REFINE_TOL counts as stale even if it moves.
    log_lo, log_hi = math.log(om_lo), math.log(om_hi)
    span_log = (log_hi - log_lo) / max(len(omegas) - 1, 1)
    span_t0 = (t0_hi - t0_lo) / max(len(t0s) - 1, 1)
    offsets = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    stale = 0
    for _ in range(60):
        cand_log = np.unique(np.clip(best_log_om + span_log * offsets,
                                     log_lo, log_hi))
        cand_t0 = np.unique(np.clip(best_t0 + span_t0 * offsets,
                                    t0_lo, t0_hi))
        local = objective(np.exp(cand_log), cand_t0)
        ii, jj = np.unravel_index(np.argmax(local), local.shape)
        improvement = local[ii, jj] - best
        if improvement > 0:
            best_log_om, best_t0, best = cand_log[ii], cand_t0[jj], \
                local[ii, jj]
        else:
            span_log *= 0.5
            span_t0 *= 0.5
        stale = stale + 1 if improvement <= REFINE_TOL * best else 0
        if stale >= 10:
            break

    omega_best = math.exp(best_log_om)
    edge = (
        (om_hi > om_lo and (best_log_om - log_lo < 1e-9
                            or log_hi - best_log_om < 1e-9))
        or (t0_hi > t0_lo and (best_t0 - t0_lo < 1e-12
                               or t0_hi - best_t0 < 1e-12)))
    return OptimizeEtaResult(omega_best, best_t0, float(best), bool(edge))


def recoil_sigma_eta(waist: float, lambda_c: float) -> float:
    """Storage lifetime set by the control-photon recoil, m w / (sqrt(2) hbar k_c)."""
    if waist <= 0 or lambda_c <= 0:
        raise ValueError("waist and lambda_c must be > 0")
    k_c = 2.0 * math.pi / lambda_c
    return RB87_MASS * waist / (SQRT2 * HBAR * k_c)


def eta_decay(t_store, eta0: float, sigma_eta: float):
    """Efficiency eta0 exp(-t^2 / 2 sigma_eta^2) after storage time t."""
    return eta0 * damping_factor(t_store, sigma_eta)


def thermal_decay_time(temperature: float,
                       lambda_p: float = D1_WAVELENGTH,
                       lambda_c: float = D1_WAVELENGTH,
                       angle_deg: float = 90.0) -> float:
    """Coarse storage-time scale of the uncondensed fraction.

    The thermal de-Broglie wavelength divided by the recoil velocity
    hbar |k_p - k_c| / m; probe and control propagate at ``angle_deg``
    (perpendicular for this level scheme).
    """
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    lambda_db = math.sqrt(2.0 * math.pi * HBAR**2
                          / (RB87_MASS * BOLTZMANN * temperature))
    k_p = 2.0 * math.pi / lambda_p
    k_c = 2.0 * math.pi / lambda_c
    dk = math.sqrt(k_p**2 + k_c**2
                   - 2.0 * k_p * k_c * math.cos(math.radians(angle_deg)))
    v_rel = HBAR * dk / RB87_MASS
    return lambda_db / v_rel


def bimodal_eta(t_store, condensate_fraction: float, sigma_bec: float,
                thermal_time: float):
    """Two-component decay, normalized to 1 at zero storage time.

    The condensed fraction decays on the recoil time scale sigma_bec, the
    thermal fraction on the much faster ``thermal_time``; at intermediate
    times the efficiency settles on a plateau at the condensate fraction.
    """
    if not 0.0 <= condensate_fraction <= 1.0:
        raise ValueError("condensate_fraction must lie in [0, 1]")
    return condensate_fraction * damping_factor(t_store, sigma_bec) \
        + (1.0 - condensate_fraction) * damping_factor(t_store, thermal_time)
