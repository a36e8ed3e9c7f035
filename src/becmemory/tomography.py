"""State and process tomography of the polarization memory.

Three analyzer settings (H/V, D/A, R/L) determine a Stokes vector; four
linearly independent input states probed this way determine the full Mueller
matrix by a linear solve.  The structured memory form then yields the
(eta, alpha, phi) figures of merit.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .memory import MemoryParams, MuellerMatrix, memory_mueller
from .polarization import StokesVector, stokes_from_intensities

# Basis keys expected in a set of state-tomography readings.
BASIS_KEYS = ("HV", "DA", "RL")

CONDITION_LIMIT = 1e8

# Largest relative disagreement of the three redundant basis sums for which a
# state reconstruction is still flagged consistent.
S0_TOLERANCE = 0.1


def canonical_inputs() -> dict[str, StokesVector]:
    """The H, D, R, L probe set (linearly independent as 4-vectors)."""
    return {
        "H": StokesVector(1.0, 1.0, 0.0, 0.0),
        "D": StokesVector(1.0, 0.0, 1.0, 0.0),
        "R": StokesVector(1.0, 0.0, 0.0, 1.0),
        "L": StokesVector(1.0, 0.0, 0.0, -1.0),
    }


@dataclass(frozen=True)
class TomographyRecord:
    """Four probe inputs and the reconstructed outputs they produced."""

    inputs: tuple[StokesVector, ...]
    outputs: tuple[StokesVector, ...]
    # inputs stacked as columns of a 4x4 matrix, and its condition number
    input_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    condition_number: float = field(init=False, compare=False)

    def __post_init__(self):
        if len(self.inputs) != 4 or len(self.outputs) != 4:
            raise ValueError("process tomography needs 4 input/output pairs")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        x = np.column_stack([s.as_array() for s in self.inputs])
        object.__setattr__(self, "input_matrix", x)
        object.__setattr__(self, "condition_number",
                           float(np.linalg.cond(x)))

    @property
    def output_matrix(self) -> np.ndarray:
        return np.column_stack([s.as_array() for s in self.outputs])


@dataclass(frozen=True)
class StateTomographyResult:
    """Reconstructed state plus reconstruction diagnostics."""

    stokes: StokesVector
    degree_of_polarization: float
    s0_spread: float        # max relative deviation of the three basis sums
    consistent: bool        # s0_spread within S0_TOLERANCE


def state_tomography(
        readings: dict[str, tuple[float, float]]) -> StateTomographyResult:
    """Reconstruct a Stokes vector from (i_plus, i_minus) per basis setting.

    ``readings`` must contain the keys "HV", "DA" and "RL".  The three
    redundant total intensities are compared; disagreement beyond
    ``S0_TOLERANCE`` (relative) only flags the result, it does not raise.
    """
    missing = [k for k in BASIS_KEYS if k not in readings]
    if missing:
        raise ValueError(f"missing basis settings: {missing}")
    (i_h, i_v), (i_d, i_a), (i_r, i_l) = (readings[k] for k in BASIS_KEYS)
    s = stokes_from_intensities(i_h, i_v, i_d, i_a, i_r, i_l)
    sums = np.array([i_h + i_v, i_d + i_a, i_r + i_l])
    mean = sums.mean()
    spread = float(np.abs(sums - mean).max() / mean) if mean > 0 else 0.0
    dop = s.degree_of_polarization if s.s0 > 0 else math.nan
    return StateTomographyResult(s, dop, spread, spread <= S0_TOLERANCE)


def process_tomography(record: TomographyRecord) -> MuellerMatrix:
    """Solve S_out(k) = M S_in(k), k = 1..4, for the unique Mueller matrix."""
    x = record.input_matrix
    cond = record.condition_number
    if cond > CONDITION_LIMIT:
        raise np.linalg.LinAlgError(
            f"input states are ill-conditioned (cond = {cond:.3g})")
    # M X = Y  <=>  X^T M^T = Y^T
    m = np.linalg.solve(x.T, record.output_matrix.T).T
    return MuellerMatrix(m)


def extract_memory_params(m: MuellerMatrix) -> tuple[MemoryParams, float]:
    """Read (eta, alpha, phi) off a Mueller matrix and report the misfit.

    eta averages the two diagonal entries the structured form forces equal,
    alpha is the magnitude of the equatorial rotation block (clamped to
    [0, 1]), and phi its angle (0 by convention when the block vanishes).
    The residual is the Frobenius distance to the structured form, in units
    of eta; values above 0.1 indicate the matrix is not a memory process.
    """
    mat = m.m
    eta = 0.5 * (mat[0, 0] + mat[3, 3])
    if eta <= 0:
        raise ValueError("extracted efficiency is not positive")
    rot = math.hypot(mat[1, 1], mat[2, 1])
    alpha = min(rot / eta, 1.0)
    phi = math.atan2(mat[2, 1], mat[1, 1]) if rot > 0 else 0.0
    params = MemoryParams(min(eta, 1.0), alpha, phi)
    residual = float(
        np.linalg.norm(mat - memory_mueller(params).m) / params.eta)
    if residual > 0.1:
        warnings.warn(
            f"matrix deviates from the memory form (residual = "
            f"{residual:.3g})", stacklevel=2)
    return params, residual
