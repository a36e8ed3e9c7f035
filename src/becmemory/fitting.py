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
        for name in ("x", "y", "sigma_y"):
            values = getattr(self, name)
            if values is not None and not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite")
        if self.sigma_y is not None and np.any(self.sigma_y <= 0):
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


# Largest FFT the coarse frequency scan takes (2**22 float64 samples, 32 MB).
FFT_MAX_SAMPLES = 1 << 22
# The cos and sin columns of a trial frequency count as parallel where the
# smaller principal value of their 2x2 Gram matrix is at most this fraction
# of its trace; the sine axis is then rounding noise.
GRAM_RTOL = 1e-12
# Grid points of the zoom over its +-2 step window, and the width, in steps,
# to which the golden-section search narrows the bracket around the best.
ZOOM_POINTS = 17
ZOOM_XTOL = 1e-7
GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


def _explained(freqs, x, ye, e2):
    """Variance of ``ye`` explained by a sinusoid at each trial frequency.

    The amplitude and phase are profiled out under the squared envelope
    ``e2``.  Each frequency's cos and sin columns are first rotated by the
    Lomb-Scargle offset (Scargle, ApJ 263, 835, 1982), which makes them
    orthogonal under the weights e2, so the variance is the sum of two
    one-column projections.  The smaller principal value, sum e2 sin^2 of
    the rotated phase, is summed from its terms rather than found as a
    difference of near-equal sums, so the value stays accurate where the
    columns are nearly parallel: next to f = 0, and next to a lattice's
    Nyquist frequency, where the sine column vanishes.  Where that value
    is at most ``GRAM_RTOL`` of sum e2 the columns are parallel, and only
    the projection onto the cosine axis is kept.
    """
    # The value is unchanged by a shift of x; centring it keeps the
    # phases, and their rounding errors, small.
    x = x - 0.5 * (x.min() + x.max())
    phase = np.exp(-2j * math.pi * freqs[:, None] * x)
    # The sums over samples go through einsum, not ``@``: OpenBLAS hands a
    # complex matrix-vector product of a few thousand elements to its
    # worker threads, which then spin on a second core between calls and
    # make the fit's speed depend on whatever else runs on the machine.
    z1 = np.einsum("fn,n->f", phase, ye)     # sum ye (cos - i sin)
    sum_e2 = e2.sum()
    rotation = np.exp(-0.5j * np.angle(np.einsum("fn,n->f", phase * phase,
                                                 e2)))
    z1 = z1 * rotation                       # the same, rotated
    sin2 = np.einsum("fn,n->f", (phase * rotation[:, None]).imag**2, e2)
    parallel = sin2 <= GRAM_RTOL * sum_e2
    return z1.real**2 / (sum_e2 - sin2) + np.where(
        parallel, 0.0, z1.imag**2 / np.where(parallel, 1.0, sin2))


def _coarse_scan(x, ye, span):
    """Frequency of the largest diagonal-Gram power |sum ye exp(-2 pi i f x)|^2
    over [0.25/span, 0.25/delta], by extirpolation (Press & Rybicki, ApJ 338,
    277, 1989): each sample is spread onto a uniform grid of n steps
    delta = span / n with the order-4 Lagrange weights of the two nodes on
    either side of it, and one rfft, zero-padded to a power of two at least
    4 (n + 1) and 4096, gives the sum in bins at most 1/(4 span) wide.  The
    band stops at half the grid's Nyquist frequency, below which the
    weights interpolate exp(-2 pi i f x) well.

    n = 2 round(span / dx), dx the smallest gap, puts the band's top at
    0.5/dx to rounding; on a lattice every sample sits on an even node with
    weights 1 and 0, so the scan is the FFT of the samples summed per site.
    To keep the FFT within ``FFT_MAX_SAMPLES``, n is capped at
    FFT_MAX_SAMPLES/4 - 1: a smaller gap coarsens the grid, and the band
    then ends below 0.5/dx rather than where the extirpolation fails.
    """
    dx = np.diff(np.unique(x)).min()
    n = int(min(2.0 * np.rint(span / dx), FFT_MAX_SAMPLES // 4 - 1))
    delta = span / n
    n_fft = max(1 << (4 * (n + 1) - 1).bit_length(), 4096)
    u = (x - x.min()) / delta
    t = u - np.floor(u)
    weights = np.column_stack([-t * (t - 1.0) * (t - 2.0) / 6.0,
                               (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
                               -(t + 1.0) * t * (t - 2.0) / 2.0,
                               (t + 1.0) * t * (t - 1.0) / 6.0])
    # Node -1 of a sample before the first node indexes the grid's end,
    # the same place for the DFT, whose period is n_fft delta.
    nodes = np.floor(u).astype(np.intp)[:, None] + np.arange(-1, 3)
    grid = np.zeros(n_fft)
    np.add.at(grid, nodes, weights * ye[:, None])
    power = np.abs(np.fft.rfft(grid))**2
    bin_width = 1.0 / (n_fft * delta)
    first = math.ceil(0.25 / (span * bin_width))
    return (first + int(np.argmax(power[first:n_fft // 4 + 1]))) * bin_width


def _zoom(x, ye, e2, best, step):
    """Frequency of the largest profiled variance within +-2 steps of best.

    ``ZOOM_POINTS`` evenly spaced frequencies rank the window; a
    golden-section search (Brent 1973, ch. 5) then narrows the bracket
    between the best node's neighbours to ``ZOOM_XTOL`` steps.  At an edge
    node the bracket reaches one spacing past the window, where the peak
    then lies.
    """
    freqs = np.linspace(max(best - 2.0 * step, 0.0), best + 2.0 * step,
                        ZOOM_POINTS)
    k = int(np.argmax(_explained(freqs, x, ye, e2)))
    spacing = freqs[1] - freqs[0]
    lo, hi = max(freqs[k] - spacing, 0.0), freqs[k] + spacing

    def explained(f):
        return _explained(np.array([f]), x, ye, e2)[0]

    inner = [hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)]
    vals = [explained(f) for f in inner]
    while hi - lo > ZOOM_XTOL * step:
        if vals[0] >= vals[1]:
            hi = inner[1]
            inner = [hi - GOLDEN * (hi - lo), inner[0]]
            vals = [explained(inner[0]), vals[0]]
        else:
            lo = inner[0]
            inner = [inner[1], lo + GOLDEN * (hi - lo)]
            vals = [vals[1], explained(inner[1])]
    return inner[0] if vals[0] >= vals[1] else inner[1]


def _dominant_frequency(x, y, envelope) -> float:
    """Angular frequency maximizing the explained variance of an
    envelope-weighted sinusoid.

    This is the discrete-spectrum peak generalized to irregular sampling:
    at each trial frequency the amplitude and phase are profiled out by a
    linear solve, and a bracketed search zooms in on the best frequency.
    Data with long gaps have near-degenerate frequency basins spaced by
    ~1/span; ranking them with the envelope included picks the right one.

    The mainlobe is only ~1/span wide, so the coarse scan must resolve it or
    a sidelobe of the sampling comb wins.  It ranks basins with the cheap
    diagonal-Gram power, one zero-padded FFT of the extirpolated samples
    (``_coarse_scan``).  The zoom's steps are 1/(4 span), not the finer
    bin width, so that its +-2 step window reaches the profiled peak, which
    can sit a tenth of 1/span from the diagonal-Gram one.
    """
    span = x.max() - x.min()
    if span <= 0:
        return 0.0
    ye = (y - y.mean()) * envelope
    best = _coarse_scan(x, ye, span)
    return 2.0 * math.pi * float(_zoom(x, ye, envelope**2, best,
                                       0.25 / span))


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

    def model(p, x):
        # an undamped fit leaves sigma out of p; inf makes the envelope 1
        amp, omega, phi0, sigma = (*p, math.inf)[:4]
        return amp * np.exp(-x**2 / (2.0 * sigma**2)) \
            * np.cos(omega * x - phi0)

    result = _finish(
        ("amplitude", "omega_f", "phi0", "sigma_alpha")[:n_params], data,
        model, [amp0, omega0, phi00, sigma0][:n_params],
        ([0.0, 0.0, -2.0 * math.pi, sigma_floor][:n_params],
         [np.inf, np.inf, 2.0 * math.pi, np.inf][:n_params]))
    params = dict(result.params)
    errors = dict(result.std_errors)
    params["phi0"] = math.remainder(params["phi0"], 2.0 * math.pi)
    if undamped:
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
