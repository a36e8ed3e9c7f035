"""Least-squares extraction of memory figures of merit.

Three fit shapes cover the measured quantities: a Gaussian-damped sinusoid
for Faraday-rotation traces, a Gaussian decay for damping and efficiency
lifetimes, and a two-parameter rescaling of a tabulated reference curve for
comparing measured efficiencies against the model prediction.  The minimizer
is damped least squares; standard errors come from the scaled inverse
Gauss-Newton normal matrix at the optimum.
"""

import math
from dataclasses import dataclass

import numpy as np


def least_squares(*args, **kwargs):
    """scipy's ``least_squares``, imported on first call so that importing
    this module loads no scipy; perfbench's tracer counts its ``nfev`` by
    this name."""
    from scipy.optimize import least_squares
    return least_squares(*args, **kwargs)


@dataclass
class DataSeries:
    """Samples (x, y) with optional per-point uncertainties."""

    x: np.ndarray
    y: np.ndarray
    sigma_y: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if self.sigma_y is not None:
            self.sigma_y = np.asarray(self.sigma_y, dtype=float)
            if self.sigma_y.shape != self.x.shape:
                raise ValueError("sigma_y must match x in shape")
            if np.any(self.sigma_y <= 0):
                raise ValueError("sigma_y must be strictly positive")

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class FitResult:
    """Best-fit parameters with standard errors and convergence status."""

    params: dict
    std_errors: dict
    chi2_per_dof: float
    converged: bool
    message: str = ""


def _finish(names, data: DataSeries, model, p0, bounds) -> FitResult:
    weights = 1.0 / data.sigma_y if data.sigma_y is not None else 1.0

    def residuals(p):
        return (model(p, data.x) - data.y) * weights

    result = least_squares(residuals, p0, bounds=bounds, method="trf",
                           xtol=1e-13, ftol=1e-13, gtol=1e-13,
                           max_nfev=2000)
    converged = result.status > 0
    dof = max(data.n - len(p0), 1)
    chi2 = float(result.fun @ result.fun) / dof
    params = dict(zip(names, (float(v) for v in result.x)))
    if not converged:
        return FitResult(params, {}, chi2, False, "did not converge")
    jtj = result.jac.T @ result.jac
    try:
        cov = np.linalg.inv(jtj) * chi2
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "singular Jacobian at the optimum") from exc
    errors = dict(zip(names, (float(math.sqrt(max(v, 0.0)))
                              for v in np.diag(cov))))
    return FitResult(params, errors, chi2, True)


# Largest zero-padded lattice the FFT scan allocates (2**22 float64 samples,
# 32 MB); a longer lattice takes the direct scan.
FFT_MAX_SAMPLES = 1 << 22


def _explained(freqs, x, ye, e2=None):
    """Variance of ``ye`` explained by a sinusoid at each trial frequency.

    With the squared envelope ``e2`` the amplitude and phase are profiled out
    by the full 2x2 Gram solve; without it this is the diagonal-Gram power
    |sum ye exp(-2 pi i f x)|^2.
    """
    phase = np.exp(-2j * math.pi * freqs[:, None] * x)
    z1 = phase @ ye                          # (sum ye cos, -sum ye sin)
    c, s = z1.real, -z1.imag
    if e2 is None:
        return c**2 + s**2
    sum_e2 = e2.sum()
    z2 = (phase * phase) @ e2                # sum e^2 exp(-2i w t)
    a = 0.5 * (sum_e2 + z2.real)             # sum e^2 cos^2
    cc = 0.5 * (sum_e2 - z2.real)            # sum e^2 sin^2
    b = -0.5 * z2.imag                       # sum e^2 cos sin
    det = a * cc - b * b
    det = np.where(np.abs(det) < 1e-300, np.inf, det)
    return (cc * c**2 - 2.0 * b * c * s + a * s**2) / det


def _lattice_step(x, span, min_step):
    """Step delta such that every x is x.min() + m*delta for an integer m,
    to 1e-6 delta, or None when there is no such lattice or its zero-padded
    FFT would exceed ``FFT_MAX_SAMPLES``.

    delta is span / round(span / min_step): rounding in a raw minimum gap
    would grow with m across a long span.
    """
    n_steps = round(span / min_step)
    if 4 * (n_steps + 1) > FFT_MAX_SAMPLES:
        return None
    delta = span / n_steps
    m = (x - x.min()) / delta
    return delta if np.max(np.abs(m - np.rint(m))) <= 1e-6 else None


def _lattice_scan(x, ye, span, delta):
    """Coarse scan on a lattice: (best frequency, zoom step 1/(4 span)).

    ``ye`` is summed onto the lattice and zero-padded to a power of two at
    least 4x its length and at least 2048, so the bins are no wider than the
    grid of ``_direct_scan`` (1/(4 span), or 512 points over the band);
    |rfft|^2 is then its diagonal-Gram power at every bin of the same band
    [0.25/span, 0.5/delta].  The zoom starts from 1/(4 span), not from the
    finer bin width: its window of +-2 steps must still reach the profiled
    peak, which can sit a tenth of 1/span from the diagonal-Gram one.
    """
    n_steps = round(span / delta)
    n_fft = max(1 << (4 * (n_steps + 1) - 1).bit_length(), 2048)
    grid = np.zeros(n_steps + 1)
    np.add.at(grid, np.rint((x - x.min()) / delta).astype(np.intp), ye)
    power = np.abs(np.fft.rfft(grid, n_fft))**2
    bin_width = 1.0 / (n_fft * delta)
    first = math.ceil(0.25 / (span * bin_width))
    best = (first + int(np.argmax(power[first:]))) * bin_width
    return best, 0.25 / span


def _direct_scan(x, ye, span, min_step):
    """Coarse scan of any abscissas: (best frequency, grid step).

    The diagonal-Gram power on an evenly spaced grid over
    [0.25/span, 0.5/min_step], 1/(4 span) apart but at most 2**18 points,
    in chunks that bound the memory.
    """
    lo, hi = 0.25 / span, 0.5 / min_step
    n_scan = min(max(int(math.ceil((hi - lo) * 4.0 * span)), 512), 1 << 18)
    freqs = np.linspace(lo, hi, n_scan)
    best, best_val = lo, -np.inf
    for start in range(0, n_scan, 8192):
        chunk = freqs[start:start + 8192]
        values = _explained(chunk, x, ye)
        k = int(np.argmax(values))
        if values[k] > best_val:
            best, best_val = chunk[k], values[k]
    return best, (hi - lo) / max(n_scan - 1, 1)


def _zoom(x, ye, e2, best, step):
    """Two passes of 512 frequencies, each +-2 steps around the best so far,
    ranked by the profiled variance."""
    for _ in range(2):
        freqs = np.linspace(max(best - 2.0 * step, 0.0), best + 2.0 * step,
                            512)
        best = freqs[np.argmax(_explained(freqs, x, ye, e2))]
        step = freqs[1] - freqs[0]
    return best


def _dominant_frequency(x, y, envelope=None) -> float:
    """Angular frequency maximizing the explained variance of an
    envelope-weighted sinusoid.

    This is the discrete-spectrum peak generalized to irregular sampling:
    at each trial frequency the amplitude and phase are profiled out by a
    linear solve, and the scan is zoomed twice around the best frequency.
    Data with long gaps have near-degenerate frequency basins spaced by
    ~1/span; ranking them with the envelope included picks the right one.

    The mainlobe is only ~1/span wide, so the coarse scan must resolve it or
    a sidelobe of the sampling comb wins.  It ranks basins with the cheap
    diagonal-Gram power: one zero-padded FFT when the abscissas sit on a
    lattice (Press & Rybicki, ApJ 338, 277, 1989) whose padded length is at
    most ``FFT_MAX_SAMPLES``, else a direct sum at each trial frequency.
    """
    span = x.max() - x.min()
    steps = np.diff(np.sort(np.unique(x)))
    dx = steps[steps > 0].min() if steps.size and (steps > 0).any() else span
    if span <= 0 or dx <= 0:
        return 0.0
    env = np.ones_like(x) if envelope is None else envelope
    ye = (y - y.mean()) * env
    delta = _lattice_step(x, span, dx)
    if delta is None:
        best, step = _direct_scan(x, ye, span, dx)
    else:
        best, step = _lattice_scan(x, ye, span, delta)
    return 2.0 * math.pi * float(_zoom(x, ye, env**2, best, step))


def _second_moment_width(x, y) -> float:
    """Envelope width estimate from the y^2-weighted second moment of x."""
    w = y**2
    total = w.sum()
    if total <= 0:
        return float(np.max(np.abs(x))) or 1.0
    m2 = float((w * x**2).sum() / total)
    return math.sqrt(2.0 * m2) if m2 > 0 else float(np.max(np.abs(x))) or 1.0


def _flat(y) -> bool:
    return float(np.ptp(y)) < 1e-12 * max(1.0, float(np.max(np.abs(y))))


def fit_damped_sinusoid(data: DataSeries, init: dict | None = None,
                        undamped: bool = False) -> FitResult:
    """Fit y = A exp(-x^2 / 2 sigma^2) cos(omega x - phi0).

    With ``undamped`` the envelope is pinned to 1 (sigma fixed at infinity)
    and only (A, omega, phi0) are fitted -- the short-time consistency check.
    The frequency must be identifiable: the data should span at least one
    oscillation period.  Constant data are flagged as non-identifiable.
    """
    n_params = 3 if undamped else 4
    if data.n < n_params:
        raise ValueError(f"need at least {n_params} points")
    if _flat(data.y):
        return FitResult({}, {}, math.nan, False,
                         "non-identifiable: data have no variation")
    init = init or {}
    sigma0 = float(init.get("sigma_alpha",
                            _second_moment_width(data.x, data.y)))
    envelope = np.exp(-data.x**2 / (2.0 * sigma0**2)) if not undamped \
        else np.ones_like(data.x)
    omega0 = float(init.get("omega_f",
                            _dominant_frequency(data.x, data.y, envelope)))
    # Phase and amplitude from a linear solve in (cos, sin) components.
    basis = np.column_stack([envelope * np.cos(omega0 * data.x),
                             envelope * np.sin(omega0 * data.x)])
    (a, b), *_ = np.linalg.lstsq(basis, data.y, rcond=None)
    amp0 = float(init.get("amplitude", max(math.hypot(a, b), 1e-12)))
    phi00 = float(init.get("phi0", math.atan2(b, a)))
    sigma_floor = 1e-9 * max(float(np.max(np.abs(data.x))), 1e-30)

    if undamped:
        def model(p, x):
            amp, omega, phi0 = p
            return amp * np.cos(omega * x - phi0)

        result = _finish(("amplitude", "omega_f", "phi0"), data, model,
                         [amp0, omega0, phi00],
                         ([0.0, 0.0, -2.0 * math.pi],
                          [np.inf, np.inf, 2.0 * math.pi]))
    else:
        def model(p, x):
            amp, omega, phi0, sigma = p
            return amp * np.exp(-x**2 / (2.0 * sigma**2)) \
                * np.cos(omega * x - phi0)

        result = _finish(("amplitude", "omega_f", "phi0", "sigma_alpha"),
                         data, model, [amp0, omega0, phi00, sigma0],
                         ([0.0, 0.0, -2.0 * math.pi, sigma_floor],
                          [np.inf, np.inf, 2.0 * math.pi, np.inf]))
    params = dict(result.params)
    errors = dict(result.std_errors)
    if "phi0" in params:
        wrapped = math.remainder(params["phi0"], 2.0 * math.pi)
        params["phi0"] = wrapped
    if undamped and params:
        params["sigma_alpha"] = math.inf
        if errors:
            errors["sigma_alpha"] = 0.0
    return FitResult(params, errors, result.chi2_per_dof, result.converged,
                     result.message)


def fit_gaussian_decay(data: DataSeries, init: dict | None = None) -> FitResult:
    """Fit y = A exp(-x^2 / 2 sigma^2) to a decay trace."""
    if data.n < 3:
        raise ValueError("need at least 3 points")
    if _flat(data.y):
        return FitResult({}, {}, math.nan, False,
                         "non-identifiable: constant data leave sigma free")
    init = init or {}
    amp0 = float(init.get("amplitude", np.max(np.abs(data.y))))
    sigma0 = float(init.get("sigma", _second_moment_width(data.x, data.y)))
    sigma_floor = 1e-9 * max(float(np.max(np.abs(data.x))), 1e-30)

    def model(p, x):
        amp, sigma = p
        return amp * np.exp(-x**2 / (2.0 * sigma**2))

    return _finish(("amplitude", "sigma"), data, model, [amp0, sigma0],
                   ([-np.inf, sigma_floor], [np.inf, np.inf]))


def fit_scaled_model(data: DataSeries, reference: DataSeries) -> FitResult:
    """Fit y = s_eta * curve(s_omega * x) against a tabulated reference.

    The reference curve is interpolated with a monotone cubic; the abscissa
    rescaling is constrained so every data point stays inside the tabulated
    range, and an impossible coverage raises with the offending points.
    """
    from scipy.interpolate import PchipInterpolator
    if data.n < 2:
        raise ValueError("need at least 2 points")
    if np.any(data.x <= 0) or np.any(reference.x <= 0):
        raise ValueError("scaled-model fit expects positive abscissas")
    order = np.argsort(reference.x)
    ref_x = reference.x[order]
    ref_y = reference.y[order]
    curve = PchipInterpolator(ref_x, ref_y, extrapolate=False)

    s_lo = float(ref_x[0] / data.x.min())
    s_hi = float(ref_x[-1] / data.x.max())
    if s_lo > s_hi:
        offending = [float(v) for v in
                     (data.x.min(), data.x.max())]
        raise ValueError(
            "reference curve cannot cover the rescaled abscissas; "
            f"conflicting data points at x = {offending}")

    peak_ref = float(ref_x[np.argmax(ref_y)])
    peak_data = float(data.x[np.argmax(data.y)])
    s_omega0 = min(max(peak_ref / peak_data, s_lo), s_hi)
    ref_peak = float(np.max(np.abs(ref_y)))
    s_eta0 = float(np.max(np.abs(data.y)) / ref_peak) if ref_peak > 0 else 1.0

    def model(p, x):
        s_eta, s_omega = p
        return s_eta * curve(s_omega * x)

    return _finish(("s_eta", "s_omega"), data, model, [s_eta0, s_omega0],
                   ([-np.inf, s_lo], [np.inf, s_hi]))
