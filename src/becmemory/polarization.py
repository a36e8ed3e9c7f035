"""Stokes/Poincare description of light polarization.

A polarization state is held as the four Stokes intensities (s0, s1, s2, s3);
its normalized part (s1, s2, s3)/s0 is the Poincare vector, which lies on the
unit sphere for pure states.  Projective measurements model a wave-plate + PBS
stage with one detector in each output port, in three analyzer settings.
"""

from dataclasses import dataclass

import numpy as np

# Degree-of-polarization excess up to this relative size is clamped onto the
# sphere; larger violations are rejected as unphysical.
DOP_TOLERANCE = 1e-9

# The analyzers along the axis of (..., analyzer, port) readings; each plus
# port passes the state on Poincare axis u1, u2 or u3, ports (plus, minus).
ANALYZERS = ("HV", "DA", "RL")


@dataclass(frozen=True)
class StokesVector:
    """Four Stokes parameters in arbitrary (common) intensity units; the
    fields may be arrays of one shape, one state per element."""

    s0: float
    s1: float
    s2: float
    s3: float

    def as_array(self) -> np.ndarray:
        """The fields as rows: shape (4,) for one state, (4, n) for n."""
        return np.array([self.s0, self.s1, self.s2, self.s3], dtype=float)

    @property
    def polarized_intensity(self) -> float:
        # np.square, not **, so that a scalar state takes an array's bits
        return np.sqrt(np.square(self.s1) + np.square(self.s2)
                       + np.square(self.s3))

    @property
    def degree_of_polarization(self) -> float:
        """|s_vec|/s0; may exceed 1 for noisy reconstructions."""
        if np.any(self.s0 <= 0):
            raise ValueError("degree of polarization undefined for s0 <= 0")
        return self.polarized_intensity / self.s0

    def is_physical(self) -> bool:
        """s0 >= 0 and |s_vec|^2 <= s0^2 (1 + DOP_TOLERANCE), per state."""
        return (self.s0 >= 0) & (np.square(self.polarized_intensity)
                                 <= np.square(self.s0) * (1.0 + DOP_TOLERANCE))


@dataclass(frozen=True)
class PoincareVector:
    """Dimensionless polarization direction; |u| = 1 for pure states."""

    u1: float
    u2: float
    u3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.u1, self.u2, self.u3], dtype=float)

    @property
    def norm(self) -> float:
        return np.sqrt(np.square(self.u1) + np.square(self.u2)
                       + np.square(self.u3))


def clamp_physical(s: StokesVector) -> StokesVector:
    """Return ``s`` with tiny sphere violations clamped, reject larger ones.

    Reconstructions from noiseless data may exceed the Poincare sphere by
    rounding; those are scaled back onto it.  Violations beyond
    ``DOP_TOLERANCE`` (relative to s0^2) indicate genuinely unphysical data
    and raise; a stack raises the error of its first offending state.
    """
    bad = ~s.is_physical()
    p = s.polarized_intensity
    if np.count_nonzero(bad):
        k = np.flatnonzero(bad)[0]
        s0, p = np.ravel(s.s0)[k], np.ravel(p)[k]
        if s0 < 0:
            raise ValueError("total intensity s0 must be >= 0")
        if s0 == 0:
            raise ValueError("zero total intensity with nonzero polarization")
        raise ValueError(f"degree of polarization {p / s0:.6g} exceeds 1 "
                         f"beyond tolerance")
    p2 = np.square(p)
    over = p2 > np.square(s.s0)
    if not np.count_nonzero(over):
        return s
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(over, s.s0 / np.sqrt(p2), 1.0)[()]
    return StokesVector(s.s0, s.s1 * scale, s.s2 * scale, s.s3 * scale)


def stokes_from_intensities(readings) -> StokesVector:
    """Build a Stokes vector from (..., analyzer, port) port readings.

    ``readings`` has shape (..., 3, 2), analyzers in ``ANALYZERS`` order,
    one state per leading index.  The three redundant basis sums are
    averaged into s0 so measurement noise is treated symmetrically.  For
    noisy inputs the result may lie slightly outside the Poincare sphere; it
    is returned as-is so callers can report its degree of polarization.
    """
    readings = np.asarray(readings, dtype=float)
    if readings.shape[-2:] != (3, 2):
        raise ValueError("readings must have shape (..., 3, 2), one (plus, "
                         f"minus) pair per analyzer, got {readings.shape}")
    if np.count_nonzero(readings < 0):
        raise ValueError("intensities must be non-negative")
    sums = readings[..., 0] + readings[..., 1]
    s0 = ((sums[..., 0] + sums[..., 1]) + sums[..., 2]) / 3.0
    return StokesVector(s0, *np.moveaxis(readings[..., 0] - readings[..., 1],
                                         -1, 0))


def poincare(s: StokesVector) -> PoincareVector:
    """Normalize the polarized part of a Stokes vector (or of a stack)."""
    if np.any(s.s0 <= 0):
        raise ValueError("Poincare vector undefined for s0 <= 0")
    return PoincareVector(s.s1 / s.s0, s.s2 / s.s0, s.s3 / s.s0)


def fidelity(u_in: PoincareVector, u_out: PoincareVector) -> float:
    """State fidelity (1 + u_in . u_out)/2 for a pure input state."""
    if np.any(np.abs(u_in.norm - 1.0) > 1e-6):
        raise ValueError("input state must be pure (unit Poincare vector)")
    dot = u_in.u1 * u_out.u1 + u_in.u2 * u_out.u2 + u_in.u3 * u_out.u3
    return 0.5 * (1.0 + dot)


def measure(s: StokesVector) -> np.ndarray:
    """Intensities at the two ports of each analyzer, as (..., 3, 2).

    Analyzers are in ``ANALYZERS`` order, ports (plus, minus); a stack of
    states adds its shape in front.  The minus port is defined as the
    complement s0 - i_plus, so no intensity is lost to independent rounding
    of the two ports.
    """
    v = np.moveaxis(clamp_physical(s).as_array(), 0, -1)   # (..., 4)
    s0 = v[..., :1]
    i_plus = 0.5 * (s0 + v[..., 1:])
    return np.stack([i_plus, s0 - i_plus], axis=-1)
