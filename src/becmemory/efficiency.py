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
from .eit import (CompressionCheck, ControlField, MediumParams,
                  check_compression_condition, optical_depth, pulse_delay,
                  transparency_width)
from .numerics import erf, i0e, quad

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
    compression: CompressionCheck | None


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
    return (1.0 + 2.0 / (tau_p * delta_omega_trans)**2)**-0.5


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
              x: float = 0.0, y: float = 0.0,
              include_transit: bool = True) -> EfficiencyResult:
    """Single-cycle efficiency for the probe line through (x, y).

    ``omega_c`` may be a plain Rabi frequency in rad/s, an array of them
    (every field then has its shape) or a ControlField.  Outside the cloud
    the efficiency is zero by definition.
    """
    if isinstance(omega_c, ControlField):
        omega_c = omega_c.omega_c
    d_p = optical_depth(medium, x, y)
    transit = medium.chord_length(x, y) / SPEED_OF_LIGHT if include_transit \
        else 0.0
    e_c, e_t = _factors(d_p, omega_c, pulse.t0, pulse.tau_p,
                        medium.gamma_total, transit)
    compression = check_compression_condition(
        pulse_delay(omega_c, d_p, medium.gamma_total), pulse.tau_p, d_p) \
        if d_p > 0 else None
    return EfficiencyResult(e_c, e_t, e_c * e_t, compression)


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
    rest = np.maximum(1.0 - np.asarray(r, float)**2, 0.0)
    return optical_depth(medium) * rest**1.5, \
        2.0 * medium.r_z * np.sqrt(rest) / SPEED_OF_LIGHT


def transverse_average_eta(omega_c, pulse: PulseParams, medium: MediumParams,
                           waist: float | None = None):
    """Efficiency averaged over the transverse probe intensity profile.

    ``omega_c`` is a Rabi frequency or an array of them; the result has its
    shape.  The weighted average reduces to a single radial integral after
    the analytic angular reduction, evaluated with adaptive quadrature for
    all Rabi frequencies at once.  The probe weight falling outside the
    cloud contributes zero efficiency.
    """
    if isinstance(omega_c, ControlField):
        omega_c = omega_c.omega_c
    w = pulse.waist if waist is None else waist
    if w <= 0:
        raise ValueError("waist must be > 0")
    omega_c = np.asarray(omega_c, float)[..., None]   # radial nodes last

    def integrand(r):
        d_p, transit = _radial_line(r, medium)
        return _radial_weight(r, medium.r_x, medium.r_y, w) * _eta_on_depth(
            d_p, omega_c, pulse.t0, pulse.tau_p, medium.gamma_total, transit)

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


def optimize_eta(medium: MediumParams, pulse: PulseParams,
                 omega_bounds: tuple[float, float] = DEFAULT_OMEGA_BOUNDS,
                 t0_bounds: tuple[float, float] | None = None,
                 waist: float | None = None,
                 grid_shape: tuple[int, int] = (200, 200),
                 include_transit: bool = True) -> OptimizeEtaResult:
    """Maximize the efficiency over control Rabi frequency and switch-off time.

    A log-linear grid search (log in omega_c, linear in t0) locates the
    basin; a deterministic shrinking-stencil refinement then resolves the
    optimum to better than REFINE_TOL relative in eta.  With ``waist`` set,
    the transverse-averaged efficiency is optimized on N_RADIAL
    Gauss-Legendre nodes of the radial line; otherwise the on-axis value,
    the same objective on the single node r = 0.  The default t0 range is
    [0, 5 tau_p + tau_d(omega_min)] at the on-axis depth.

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

    if waist is None:
        r, weights = np.zeros(1), np.ones(1)
    else:
        nodes, gl_weights = np.polynomial.legendre.leggauss(N_RADIAL)
        r = 0.5 * (nodes + 1.0)
        weights = 0.5 * gl_weights * _radial_weight(r, medium.r_x,
                                                    medium.r_y, waist)
    d_p, transit = _radial_line(r, medium)
    if not include_transit:
        transit = 0.0

    def objective(omegas, t0s):
        # Blocks of Omega_c rows: the full (Omega_c, t0, node) cube of a
        # 200 x 200 grid would hold 31 MB per temporary.
        rows = max(1, BLOCK_CELLS // (t0s.size * r.size))
        return np.concatenate([
            _eta_on_depth(d_p, omegas[i:i + rows, None, None], t0s[:, None],
                          pulse.tau_p, medium.gamma_total, transit) @ weights
            for i in range(0, omegas.size, rows)])

    n_om, n_t0 = grid_shape
    omegas = np.geomspace(om_lo, om_hi, max(n_om, 1))
    t0s = np.linspace(t0_lo, t0_hi, max(n_t0, 1))
    values = objective(omegas, t0s)
    i, j = np.unravel_index(np.argmax(values), values.shape)
    best_log_om, best_t0, best = math.log(omegas[i]), t0s[j], values[i, j]

    # Shrinking-stencil refinement in (log omega_c, t0).  Each pass evaluates
    # a 5x5 stencil around the incumbent; when the incumbent stays put the
    # stencil is halved, so 60 passes resolve the optimum far below
    # REFINE_TOL in eta for any smooth objective.
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
    """Gaussian decay of the efficiency with storage time."""
    if sigma_eta <= 0:
        raise ValueError("sigma_eta must be > 0")
    return eta0 * np.exp(-np.asarray(t_store, float)**2
                         / (2.0 * sigma_eta**2))


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
    if sigma_bec <= 0 or thermal_time <= 0:
        raise ValueError("decay times must be > 0")
    t2 = np.asarray(t_store, float)**2
    return condensate_fraction * np.exp(-t2 / (2.0 * sigma_bec**2)) \
        + (1.0 - condensate_fraction) * np.exp(-t2 / (2.0 * thermal_time**2))
