"""Mueller-matrix model of the write-read process.

The storage-and-retrieval cycle acts on the Stokes vector as an overall
efficiency eta, a Faraday rotation by phi about the hold-field axis, and a
damping alpha of the equatorial (s1, s2) components.  The damping arises from
shot-to-shot fluctuations of the hold field: each shot is unitary (alpha = 1)
with a random rotation angle, and only the ensemble average dephases.
"""

from __future__ import annotations  # np.random annotations load nothing

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
    """Real 4x4 map of Stokes vectors, or a (..., 4, 4) stack of them."""

    m: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.m, dtype=float)
        if mat.shape[-2:] != (4, 4):
            raise ValueError("Mueller matrix must be 4x4")
        object.__setattr__(self, "m", mat)


@dataclass(frozen=True)
class MemoryParams:
    """(eta, alpha, phi) of the memory process, or arrays of them."""

    eta: float
    alpha: float
    phi: float

    def __post_init__(self):
        if not np.all((0.0 <= self.eta) & (self.eta <= 1.0)):
            raise ValueError("efficiency eta must lie in [0, 1]")
        if not np.all((0.0 <= self.alpha) & (self.alpha <= 1.0)):
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


FARADAY_RATE = 2.0 * math.pi * MU_B_OVER_H * G_F * DELTA_MF   # rad/s/G


def faraday_frequency(bz):
    """Angular Faraday rotation frequency of the Poincare vector, rad/s;
    ``bz`` broadcasts."""
    return FARADAY_RATE * bz


def rotation_angle(t_store, tau_d: float, omega_f):
    """Total rotation angle during storage plus the slow-light delay;
    ``t_store`` and ``omega_f`` broadcast."""
    # count_nonzero, not np.any, which costs several times as much on a
    # scalar: sample_shots calls this once per sample point
    if np.count_nonzero(t_store < 0) or tau_d < 0:
        raise ValueError("t_store and tau_d must be >= 0")
    return omega_f * (t_store + tau_d)


def memory_mueller(params: MemoryParams) -> MuellerMatrix:
    """Memory Mueller matrix, eta-scaled damped rotation; a stack for arrays."""
    c = params.alpha * np.cos(params.phi)
    s = params.alpha * np.sin(params.phi)
    eta = params.eta
    m = np.zeros(np.broadcast(eta, c).shape + (4, 4))
    m[..., 0, 0] = m[..., 3, 3] = eta
    m[..., 1, 1] = m[..., 2, 2] = eta * c
    m[..., 1, 2], m[..., 2, 1] = -eta * s, eta * s
    return MuellerMatrix(m)


def apply_mueller(m: MuellerMatrix, s_in: StokesVector) -> StokesVector:
    """Apply a Mueller matrix (or a stack) to a state or a stack of states.

    The output is tested against the Stokes invariants and a warning is
    issued if any state violates them (an unphysical matrix).
    """
    x = s_in.as_array()     # m.m @ x holds the fields on axis -x.ndim
    out = StokesVector(*np.moveaxis(m.m @ x, -x.ndim, 0))
    if not np.all(out.is_physical()):
        warnings.warn("Mueller matrix produced an unphysical Stokes vector",
                      stacklevel=2)
    return out


def damping_factor(t_store, sigma_alpha: float):
    """Gaussian decay exp(-t^2 / 2 sigma_alpha^2), such as the damping alpha;
    ``t_store`` broadcasts and sigma_alpha = inf gives 1."""
    if sigma_alpha <= 0:
        raise ValueError("decay time must be > 0")
    t_store = np.asarray(t_store, float)
    if np.any(t_store < 0):
        raise ValueError("t_store must be >= 0")
    return np.exp(-t_store**2 / (2.0 * sigma_alpha**2))[()]


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
    """Average process fidelity (2 + alpha)/3; ``alpha`` broadcasts."""
    if not np.all((0.0 <= alpha) & (alpha <= 1.0)):
        raise ValueError("alpha must lie in [0, 1]")
    return (2.0 + alpha) / 3.0


def s1_trace(t_store, sigma_alpha: float, phi, phi0: float):
    """Ensemble-averaged s1/s0 for a linear input: damped cosine of phi - phi0;
    ``t_store`` and ``phi`` broadcast."""
    return damping_factor(t_store, sigma_alpha) * np.cos(phi - phi0)


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
    # rotation_angle(t_store, tau_d, faraday_frequency(bz)), in place; the
    # call checks the times and gives t_store + tau_d
    phi = rng.normal(noise.mean_bz, noise.sigma_b, n)
    phi *= FARADAY_RATE
    phi *= rotation_angle(t_store, tau_d, 1.0)
    c, s = np.cos(phi), np.sin(phi)
    out = np.empty((n, 4))
    out[:, 0], out[:, 3] = eta, eta * u_in.u3
    np.multiply(c * u_in.u1 - s * u_in.u2, eta, out=out[:, 1])
    np.multiply(s * u_in.u1 + c * u_in.u2, eta, out=out[:, 2])
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
