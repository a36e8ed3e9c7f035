"""Linear optical response of the condensate under EIT.

Covers the probe susceptibility and its small-detuning expansion, the group
index and slow-light delay, the optical depth of a Thomas-Fermi cloud, and
the transparency window that together control the storage efficiency.

All frequencies are angular (rad/s); lengths are in m.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT


@dataclass(frozen=True)
class MediumParams:
    """Condensate and transition parameters seen by the probe."""

    atom_number: float
    r_x: float              # Thomas-Fermi radius along gravity, m
    r_y: float              # m, control-beam axis
    r_z: float              # m, probe-beam axis
    gamma_total: float      # excited-state decay rate, rad/s
    branching_ratio: float  # partial decay into the probe ground state
    lambda_p: float         # probe wavelength, m

    def __post_init__(self):
        for name in ("atom_number", "r_x", "r_y", "r_z", "gamma_total",
                     "branching_ratio", "lambda_p"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.branching_ratio > 1:
            raise ValueError("branching_ratio must be <= 1")

    @property
    def gamma_p(self) -> float:
        return self.branching_ratio * self.gamma_total

    @property
    def cross_section(self) -> float:
        """Resonant scattering cross section 3 lambda^2 / 2 pi."""
        return 3.0 * self.lambda_p**2 / (2.0 * math.pi)

    @property
    def omega_p(self) -> float:
        """Probe angular frequency 2 pi c / lambda."""
        return 2.0 * math.pi * SPEED_OF_LIGHT / self.lambda_p

    @property
    def peak_density(self) -> float:
        """Central density of the Thomas-Fermi profile, m^-3."""
        return 15.0 * self.atom_number / (
            8.0 * math.pi * self.r_x * self.r_y * self.r_z)

    def density(self, x, y, z):
        """Thomas-Fermi density, zero outside the ellipsoid."""
        parabola = 1.0 - (np.asarray(x) / self.r_x)**2 \
            - (np.asarray(y) / self.r_y)**2 - (np.asarray(z) / self.r_z)**2
        return self.peak_density * np.maximum(parabola, 0.0)

    def _transverse_rest(self, x=0.0, y=0.0):
        """1 - x^2/Rx^2 - y^2/Ry^2 at offset (x, y), clipped at 0 outside
        the transverse ellipse; x and y broadcast."""
        # np.square, not **: a scalar's ** is libm's pow, which can round
        # differently from the array loop that a scalar call must match
        return np.maximum(
            1.0 - np.square(x / self.r_x) - np.square(y / self.r_y), 0.0)

    def chord_length(self, x=0.0, y=0.0):
        """Probe path length through the cloud at offset (x, y); broadcasts."""
        return 2.0 * self.r_z * np.sqrt(self._transverse_rest(x, y))

    def rescaled_to_depth(self, dp_target: float) -> "MediumParams":
        """Copy with the atom number scaled so optical_depth(0, 0) == dp_target."""
        if dp_target <= 0:
            raise ValueError("dp_target must be > 0")
        scale = dp_target / float(optical_depth(self))
        return MediumParams(self.atom_number * scale, self.r_x, self.r_y,
                            self.r_z, self.gamma_total, self.branching_ratio,
                            self.lambda_p)


@dataclass(frozen=True)
class ControlField:
    """Control-beam Rabi frequency and single-photon detuning, rad/s."""

    omega_c: float
    delta_c: float = 0.0

    def __post_init__(self):
        if self.omega_c <= 0:
            raise ValueError("omega_c must be > 0")


@dataclass(frozen=True)
class Susceptibility:
    re: float
    im: float


def group_index(omega_c: float, density: float, medium: MediumParams) -> float:
    """Slow-light group index Gamma_p rho sigma c / Omega_c^2."""
    if density < 0:
        raise ValueError("density must be >= 0")
    return medium.gamma_p / omega_c**2 * density * medium.cross_section \
        * SPEED_OF_LIGHT


def group_velocity(n_gr: float) -> float:
    """Group velocity c / (1 + n_gr)."""
    if n_gr < 0:
        raise ValueError("group index must be >= 0")
    return SPEED_OF_LIGHT / (1.0 + n_gr)


def chi0(omega_c: float, medium: MediumParams, density: float) -> float:
    """Susceptibility scale n_gr Omega_c^2 / (omega_p Gamma)."""
    n_gr = group_index(omega_c, density, medium)
    return n_gr * omega_c**2 / (medium.omega_p * medium.gamma_total)


def susceptibility(delta2, field: ControlField, chi0_value: float,
                   gamma: float) -> Susceptibility:
    """Probe susceptibility at two-photon detuning delta2.

    The imaginary part is non-negative for every detuning (pure absorption,
    no gain) and vanishes exactly on the two-photon resonance.  ``delta2``
    may be an array; the parts then have its shape.
    """
    num = chi0_value * 2.0 * delta2 * gamma
    den = (field.omega_c**2 - 4.0 * delta2 * (field.delta_c + delta2)) \
        - 2j * delta2 * gamma
    # np.divide, not /: Python's complex division can round differently
    # from numpy's, which a scalar call must match
    value = np.divide(num, den)
    return Susceptibility(value.real, value.imag)


def susceptibility_approx(delta2, omega_c: float, chi0_value: float,
                          gamma: float) -> Susceptibility:
    """Lowest-order expansion: Re linear and Im quadratic in delta2.

    Both terms are independent of the single-photon detuning.  ``delta2``
    may be an array.
    """
    slope = 2.0 * gamma / omega_c**2 * delta2
    return Susceptibility(chi0_value * slope, chi0_value * np.square(slope))


def optical_depth(medium: MediumParams, x=0.0, y=0.0):
    """Optical depth of the probe line through the cloud at offset (x, y).

    Analytic z-integral of the Thomas-Fermi parabola:
    (Gamma_p/Gamma) sigma rho0 (4/3) R_z (1 - x^2/Rx^2 - y^2/Ry^2)^(3/2),
    zero outside the transverse ellipse.  x and y broadcast.
    """
    # np.power, not **, so that a scalar offset takes an array's pow
    return medium.branching_ratio * medium.cross_section \
        * medium.peak_density * (4.0 / 3.0) * medium.r_z \
        * np.power(medium._transverse_rest(x, y), 1.5)


def pulse_delay(omega_c, d_p, gamma):
    """Slow-light delay through the full medium, Gamma d_p / Omega_c^2.

    All arguments broadcast.
    """
    if np.any(omega_c <= 0) or np.any(gamma <= 0) or np.any(d_p < 0):
        raise ValueError("omega_c and gamma must be > 0, d_p >= 0")
    return gamma * d_p / omega_c**2


def transparency_width(omega_c, gamma, d_p):
    """Full width Omega_c^2 / (Gamma sqrt(d_p)) of the EIT window.

    The intensity transmission is Gaussian in detuning with rms width
    transparency_width / sqrt(8).  All arguments broadcast.
    """
    if np.any(d_p <= 0):
        raise ValueError("transparency width undefined for d_p <= 0")
    return omega_c**2 / (gamma * np.sqrt(d_p))


def im_chi_maxima(field: ControlField) -> tuple[float, float]:
    """Two-photon detunings of the absorption maxima, ordered ascending.

    The maxima sit at (-Delta_c +- sqrt(Delta_c^2 + Omega_c^2))/2, where the
    imaginary part reaches exactly chi0.
    """
    root = math.sqrt(field.delta_c**2 + field.omega_c**2)
    lo = 0.5 * (-field.delta_c - root)
    hi = 0.5 * (-field.delta_c + root)
    return lo, hi


@dataclass(frozen=True)
class CompressionCheck:
    """Diagnostics of the compression vs absorption trade-off."""

    delay_ratio: float      # tau_d / tau_p
    sqrt_dp: float
    compressible: bool      # tau_d/tau_p > 1: pulse fits into the medium
    low_absorption: bool    # tau_d/tau_p < sqrt(d_p)


def check_compression_condition(tau_d: float, tau_p: float,
                                d_p: float) -> CompressionCheck:
    """Evaluate tau_d/tau_p against 1 and sqrt(d_p); ``tau_d`` broadcasts."""
    if tau_p <= 0 or np.any(tau_d < 0) or d_p < 0:
        raise ValueError("tau_p must be > 0; tau_d and d_p >= 0")
    ratio = tau_d / tau_p
    sqrt_dp = math.sqrt(d_p)
    return CompressionCheck(ratio, sqrt_dp, ratio > 1.0, ratio < sqrt_dp)
