"""State and process tomography of the polarization memory.

Three analyzer settings (H/V, D/A, R/L) determine a Stokes vector; four
linearly independent input states probed this way determine the full Mueller
matrix by a linear solve.  The structured memory form then yields the
(eta, alpha, phi) figures of merit.  Each kernel also takes a stack of
experiments along leading axes and reconstructs them in one call.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .memory import MemoryParams, MuellerMatrix, memory_mueller
from .polarization import StokesVector, stokes_from_intensities

# The probe inputs, in the order of canonical_inputs()'s states.
INPUT_LABELS = ("H", "D", "R", "L")

CONDITION_LIMIT = 1e8

# Largest relative disagreement of the three redundant basis sums for which a
# state reconstruction is still flagged consistent.
S0_TOLERANCE = 0.1


class StructureWarning(UserWarning):
    """A reconstructed Mueller matrix deviates from the memory form."""


def canonical_inputs() -> StokesVector:
    """The H, D, R, L probe set as one stack of 4 states (linearly
    independent as 4-vectors)."""
    return StokesVector(*np.array([[1.0, 1.0, 0.0, 0.0],
                                   [1.0, 0.0, 1.0, 0.0],
                                   [1.0, 0.0, 0.0, 1.0],
                                   [1.0, 0.0, 0.0, -1.0]]).T)


@dataclass(frozen=True)
class StateTomographyResult:
    """Reconstructed state plus reconstruction diagnostics."""

    stokes: StokesVector
    degree_of_polarization: float
    s0_spread: float        # max relative deviation of the three basis sums
    consistent: bool        # s0_spread within S0_TOLERANCE


def state_tomography(readings) -> StateTomographyResult:
    """Reconstruct a Stokes vector from (..., analyzer, port) readings.

    ``readings`` has shape (..., 3, 2), (i_plus, i_minus) per analyzer in
    ``polarization.ANALYZERS`` order, as ``measure`` gives them; every field
    of the result has the leading shape.  The three redundant total
    intensities are compared; disagreement beyond ``S0_TOLERANCE``
    (relative) only flags the result, it does not raise.
    """
    s = stokes_from_intensities(readings)
    # s0 is the mean of the three sums; where it is 0 they are, and so is
    # the spread
    sums = np.sum(readings, axis=-1)
    spread = np.abs(sums - s.s0[..., None]).max(axis=-1) \
        / np.where(s.s0 > 0, s.s0, 1.0)
    dop = np.divide(s.polarized_intensity, s.s0, where=s.s0 > 0,
                    out=np.full(np.shape(s.s0), math.nan))[()]
    return StateTomographyResult(s, dop, spread, spread <= S0_TOLERANCE)


def process_tomography(inputs: StokesVector,
                       outputs: StokesVector) -> MuellerMatrix:
    """Solve S_out(k) = M S_in(k), k = 1..4, for the unique Mueller matrix;
    ``inputs`` is a stack of 4 states, and ``outputs`` fields of shape
    (..., 4) give a (..., 4, 4) stack of matrices from one solve."""
    x, y_t = inputs.as_array(), np.moveaxis(outputs.as_array(), 0, -1)
    if x.shape != (4, 4) or y_t.ndim < 2 or y_t.shape[-2] != 4:
        raise ValueError("process tomography needs 4 input/output pairs")
    cond = np.linalg.cond(x)
    if cond > CONDITION_LIMIT:
        raise np.linalg.LinAlgError(
            f"input states are ill-conditioned (cond = {cond:.3g})")
    # M X = Y  <=>  X^T M^T = Y^T, and y_t[..., k, :] is output state k
    return MuellerMatrix(np.linalg.solve(x.T, y_t).swapaxes(-1, -2))


def extract_memory_params(m: MuellerMatrix) -> tuple[MemoryParams, float]:
    """Read (eta, alpha, phi) off a Mueller matrix and report the misfit.

    eta averages the two diagonal entries the structured form forces equal,
    alpha is the magnitude of the equatorial rotation block (clamped to
    [0, 1]), and phi its angle (0 by convention when the block vanishes).
    The residual is the Frobenius distance to the structured form, in units
    of eta; values above 0.1 indicate the matrix is not a memory process.
    A (..., 4, 4) stack gives (...) arrays, and warns once per such record.
    """
    mat = m.m
    eta = 0.5 * (mat[..., 0, 0] + mat[..., 3, 3])
    if np.count_nonzero(eta <= 0):
        raise ValueError("extracted efficiency is not positive")
    rot = np.hypot(mat[..., 1, 1], mat[..., 2, 1])
    phi = np.where(rot > 0, np.arctan2(mat[..., 2, 1], mat[..., 1, 1]), 0.0)
    params = MemoryParams(np.minimum(eta, 1.0), np.minimum(rot / eta, 1.0),
                          phi[()])
    # a dot product per record gives np.linalg.norm's bits
    diff = (mat - memory_mueller(params).m).reshape(mat.shape[:-2] + (1, 16))
    residual = np.sqrt(diff @ diff.swapaxes(-1, -2))[..., 0, 0] / params.eta
    for value in residual[residual > 0.1]:
        warnings.warn(
            f"matrix deviates from the memory form (residual = "
            f"{value:.3g})", StructureWarning, stacklevel=2)
    return params, residual
