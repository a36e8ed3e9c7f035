"""Mueller-matrix model of the write-read process.

The storage-and-retrieval cycle acts on the Stokes vector as an overall
efficiency eta, a Faraday rotation by phi about the hold-field axis, and a
damping alpha of the equatorial (s1, s2) components.  The damping arises from
shot-to-shot fluctuations of the hold field: each shot is unitary (alpha = 1)
with a random rotation angle, and only the ensemble average dephases.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import DELTA_MF, G_F, MU_B_OVER_H
from .polarization import PoincareVector, StokesVector

# rms shot-to-shot field fluctuation in gauss for the supported setups
NOISE_PRESETS = {
    "unsynchronized": 2e-3,
    "line-synced": 1e-4,
    "feed-forward": 2e-4,
}

# Hold field in gauss giving a Faraday frequency of exactly 2*pi x 0.20 MHz
# (the frequency is 1.40 MHz/G x g_F Delta_mF and g_F Delta_mF = 1 here).
DEFAULT_MEAN_BZ = 1.0 / 7.0


@dataclass(frozen=True)
class MuellerMatrix:
    """4x4 real map from input to output Stokes vectors."""

    m: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.m, dtype=float)
        if mat.shape != (4, 4):
            raise ValueError("Mueller matrix must be 4x4")
        object.__setattr__(self, "m", mat)


@dataclass(frozen=True)
class MemoryParams:
    """(eta, alpha, phi) triple parameterizing the memory process."""

    eta: float
    alpha: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("efficiency eta must lie in [0, 1]")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("damping alpha must lie in [0, 1]")


@dataclass(frozen=True)
class NoiseModel:
    """Shot-to-shot magnetic field statistics along the hold axis."""

    mean_bz: float          # gauss
    sigma_b: float          # gauss, rms shot-to-shot fluctuation
    preset: str = "custom"

    def __post_init__(self):
        if self.sigma_b < 0:
            raise ValueError("sigma_b must be >= 0")

    @classmethod
    def from_preset(cls, name: str, mean_bz: float | None = None) -> "NoiseModel":
        if name not in NOISE_PRESETS:
            raise ValueError(
                f"unknown noise preset {name!r}; expected one of "
                f"{sorted(NOISE_PRESETS)}")
        bz = DEFAULT_MEAN_BZ if mean_bz is None else mean_bz
        return cls(bz, NOISE_PRESETS[name], name)


def faraday_frequency(bz: float) -> float:
    """Angular Faraday rotation frequency of the Poincare vector, rad/s."""
    return 2.0 * math.pi * MU_B_OVER_H * G_F * DELTA_MF * bz


def rotation_angle(t_store: float, tau_d: float, omega_f: float) -> float:
    """Total rotation angle during storage plus the slow-light delay."""
    if t_store < 0 or tau_d < 0:
        raise ValueError("t_store and tau_d must be >= 0")
    return omega_f * (t_store + tau_d)


def memory_mueller(params: MemoryParams) -> MuellerMatrix:
    """Mueller matrix of the memory: eta-scaled rotation with damping."""
    c = params.alpha * math.cos(params.phi)
    s = params.alpha * math.sin(params.phi)
    eta = params.eta
    return MuellerMatrix(np.array([
        [eta, 0.0, 0.0, 0.0],
        [0.0, eta * c, -eta * s, 0.0],
        [0.0, eta * s, eta * c, 0.0],
        [0.0, 0.0, 0.0, eta],
    ]))


def apply_mueller(m: MuellerMatrix, s_in: StokesVector,
                  check: bool = True) -> StokesVector:
    """Apply a Mueller matrix to a Stokes vector.

    With ``check`` the output is tested against the Stokes invariants and a
    warning is issued if it violates them (an unphysical matrix).
    """
    out = StokesVector.from_array(m.m @ s_in.as_array())
    if check and not out.is_physical(tol=1e-9):
        warnings.warn("Mueller matrix produced an unphysical Stokes vector",
                      stacklevel=2)
    return out


def damping_factor(t_store: float, sigma_alpha: float) -> float:
    """Ensemble damping alpha = exp(-t^2 / 2 sigma_alpha^2)."""
    if sigma_alpha <= 0:
        raise ValueError("sigma_alpha must be > 0")
    if t_store < 0:
        raise ValueError("t_store must be >= 0")
    if math.isinf(sigma_alpha):
        return 1.0
    return math.exp(-t_store**2 / (2.0 * sigma_alpha**2))


def sigma_alpha_from_noise(sigma_b: float) -> float:
    """Damping time from the rms field fluctuation: 1/sigma_alpha = sigma_B domega_F/dB.

    Returns +inf for sigma_b = 0 (no dephasing).
    """
    if sigma_b < 0:
        raise ValueError("sigma_b must be >= 0")
    if sigma_b == 0:
        return math.inf
    return 1.0 / faraday_frequency(sigma_b)


def average_process_fidelity(alpha: float) -> float:
    """Process fidelity averaged over all pure inputs: (2 + alpha)/3."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return (2.0 + alpha) / 3.0


def s1_trace(t_store: float, sigma_alpha: float, phi: float,
             phi0: float) -> float:
    """Ensemble-averaged s1/s0 for a linear input: damped cosine of phi - phi0."""
    return damping_factor(t_store, sigma_alpha) * math.cos(phi - phi0)


def sample_shots(u_in: PoincareVector, t_store: float, tau_d: float,
                 eta: float, noise: NoiseModel, n: int,
                 seed: np.random.SeedSequence | int) -> np.ndarray:
    """Simulate n storage shots with field values drawn from the noise model.

    Returns an (n, 4) array of output Stokes vectors.  Each shot is unitary:
    its output Poincare vector stays on the unit sphere, only its azimuth
    fluctuates from shot to shot.
    """
    if abs(u_in.norm - 1.0) > 1e-6:
        raise ValueError("input state must be pure (unit Poincare vector)")
    rng = np.random.default_rng(seed)
    bz = rng.normal(noise.mean_bz, noise.sigma_b, n)
    phi = faraday_frequency(1.0) * bz * (t_store + tau_d)
    c, s = np.cos(phi), np.sin(phi)
    out = np.empty((n, 4))
    out[:, 0] = eta
    out[:, 1] = eta * (c * u_in.u1 - s * u_in.u2)
    out[:, 2] = eta * (s * u_in.u1 + c * u_in.u2)
    out[:, 3] = eta * u_in.u3
    return out


def apply_detector_noise(intensities: np.ndarray, rng: np.random.Generator,
                         relative_sigma: float = 0.02,
                         background: float = 0.0) -> np.ndarray:
    """Multiplicative Gaussian gain noise plus an additive background.

    Readings are clipped at 0: a photodiode cannot read below zero, however
    large the gain noise or negative the background offset.
    """
    intensities = np.asarray(intensities, dtype=float)
    noisy = intensities * (1.0 + relative_sigma * rng.standard_normal(
        intensities.shape)) + background
    return np.maximum(noisy, 0.0)
