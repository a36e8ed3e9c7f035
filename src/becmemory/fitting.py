"""Least-squares extraction of memory figures of merit.

Three fit shapes cover the measured quantities: a Gaussian-damped sinusoid
for Faraday-rotation traces, a Gaussian decay for damping and efficiency
lifetimes, and a two-parameter rescaling of a tabulated reference curve for
comparing measured efficiencies against the model prediction.  Every fit
runs one numpy Levenberg-Marquardt loop, ``least_squares``, and the
reference curve is ``numerics.pchip``, so none loads scipy; standard errors
come from the scaled inverse Gauss-Newton normal matrix at the optimum.

The sinusoid fit starts the loop at the peak of one FFT of the data
(``_coarse_scan``), close enough to land in the right frequency basin; the
loop then solves for the frequency with the other parameters.  Each fit
gives the loop its own Jacobian: the sinusoid and the scaled model their
analytic ones, the Gaussian decay (fig4) scipy's 2-point difference,
whose bias perfbench's fig4 reference records.
"""

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .numerics import pchip


# Tolerance of the solver on the step, the decrease and the gradient.
LSQ_TOL = 1e-13
LSQ_MAX_NFEV = 2000     # residual evaluations before it stops, unconverged
# Floor of the Levenberg-Marquardt parameter: it damps a step by a part in
# 1e12 at most, and keeps the damped system regular where a column is 0.
LM_LAMBDA_MIN = 1e-12


def least_squares(fun, x0, jac):
    """Minimize sum(fun(x)**2) from ``x0`` by an unbounded numpy
    Levenberg-Marquardt loop (More, LNM 630, 1978), ``jac(x)`` being the
    Jacobian of ``fun``; perfbench's tracer counts the result's ``nfev`` by
    this name.  ``nfev`` counts the evaluations of ``fun`` only.

    Each step solves (J^T J + lam D) s = -J^T r, D the largest diag(J^T J)
    met so far.  lam follows Nielsen's rule (Madsen, Nielsen & Tingleff,
    "Methods for non-linear least squares problems", 2004, eq. 2.21): after
    a step that lowers the sum of squares it shrinks, by up to 3x and not
    below ``LM_LAMBDA_MIN``, the closer the decrease came to the one the
    linear model predicted; after each step that does not, it grows by a
    factor that doubles each time, 2, 4, 8, ...
    J^T J and J^T r are summed with ``einsum``, not ``@``: OpenBLAS hands a
    product over a few thousand samples to its worker threads, which then
    spin on a second core between calls and make the fit's speed depend on
    whatever else runs on the machine.

    The result has ``x``, ``fun``, ``jac``, ``nfev`` and ``status``, which
    follows scipy's: 1 when every column's cosine with the residual, its
    norm taken as sqrt(D), is at most ``LSQ_TOL``; 2 when an accepted step
    lowers the sum by at most ``LSQ_TOL`` of it, and by more than a quarter
    of the decrease the linear model predicted; 3 when the step, scaled by
    sqrt(D), is at most ``LSQ_TOL`` of the parameters so scaled; 0 when
    ``LSQ_MAX_NFEV`` residual evaluations ran out.
    """
    x = np.array(x0, dtype=float)
    r, jacobian = fun(x), jac(x)
    cost, lam, nu, nfev, status = float(r @ r), 1e-3, 2.0, 1, 0
    d = np.zeros(x.size)
    while nfev < LSQ_MAX_NFEV:
        a = np.einsum("ni,nj->ij", jacobian, jacobian)
        g = np.einsum("ni,n->i", jacobian, r)
        # D keeps a column that fades out, as fig4's sigma column does when
        # the data resolve no decay, from making the damped system singular
        d = np.maximum(d, np.diag(a))
        if np.all(np.abs(g) <= LSQ_TOL * np.sqrt(d * cost)):
            status = 1
            break
        step = np.linalg.solve(a + lam * np.diag(d), -g)
        with np.errstate(over="ignore", invalid="ignore"):
            trial = fun(x + step)   # an overflowing step is rejected below
            trial_cost = float(trial @ trial)
        nfev += 1
        scale = np.sqrt(d)
        small = np.linalg.norm(scale * step) \
            <= LSQ_TOL * np.linalg.norm(scale * x)
        if trial_cost < cost:
            predicted = -float(2.0 * g @ step + step @ a @ step)
            decrease = cost - trial_cost
            x, r, cost = x + step, trial, trial_cost
            jacobian = jac(x)
            rho = decrease / predicted if predicted > 0 else 1.0
            lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0)**3),
                      LM_LAMBDA_MIN)
            nu = 2.0
            if decrease <= LSQ_TOL * cost and rho > 0.25:
                status = 2
                break
        else:
            lam *= nu
            nu *= 2.0
        if small:
            status = 3
            break
    return SimpleNamespace(x=x, fun=r, jac=jacobian, nfev=nfev,
                           status=status)


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


def _finish(names, data: DataSeries, model, p0, jacobian) -> FitResult:
    """Fit ``model(p)`` and its Jacobian ``jacobian(p)``, both at ``data.x``,
    to ``data`` from ``p0`` by ``least_squares``, weighted by 1/sigma_y."""
    weights = None if data.sigma_y is None else 1.0 / data.sigma_y

    def residuals(p):
        r = model(p) - data.y
        return r if weights is None else r * weights

    def weighted_jacobian(p):
        j = jacobian(p)
        return j if weights is None else j * weights[:, None]

    result = least_squares(residuals, p0, weighted_jacobian)
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
def _coarse_scan(x, ye, span):
    """Frequency of the largest diagonal-Gram power |sum ye exp(-2 pi i f x)|^2
    over [0.25/span, 0.5/dx], dx the smallest gap, by extirpolation (Press &
    Rybicki, ApJ 338, 277, 1989): each sample is spread onto a uniform grid
    of n steps delta = span / n with the order-4 Lagrange weights of the two
    nodes on either side of it, and one zero-padded rfft gives the sum in
    bins at most 1/(4 span) wide.

    Off a lattice, n = 2 round(span / dx), so the band's top is half the
    grid's Nyquist frequency, below which the weights interpolate
    exp(-2 pi i f x) well; the rfft is zero-padded to a power of two at
    least 4 (n + 1) and 4096.  When every sample lies on the lattice of
    step span / round(span / dx), to 1e-6 of a step, n = round(span / dx):
    each sample sits on a node with weights 1 and 0, the band reaches the
    grid's Nyquist frequency, and an rfft half as long has the same bins.
    To keep the FFT within ``FFT_MAX_SAMPLES``, n is capped at
    FFT_MAX_SAMPLES/4 - 1: a smaller gap coarsens the grid, and the band
    then ends below 0.5/dx rather than where the extirpolation fails.
    The grid holds only nodes 0 to n + 2, which the rfft zero-pads, unless
    a sample gives node -1, the DFT's node n_fft - 1, a non-zero weight.
    """
    dx = np.diff(np.unique(x)).min()
    sites = np.rint(span / dx)
    u = (x - x.min()) / (span / sites)
    refine = 1 if sites < FFT_MAX_SAMPLES // 4 \
        and np.max(np.abs(u - np.rint(u))) <= 1e-6 else 2
    n = int(min(refine * sites, FFT_MAX_SAMPLES // 4 - 1))
    delta = span / n
    n_fft = max(1 << (4 * (n + 1) - 1).bit_length(), 2048 * refine)
    u = (x - x.min()) / delta
    t = u - np.floor(u)
    weights = np.column_stack([-t * (t - 1.0) * (t - 2.0) / 6.0,
                               (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
                               -(t + 1.0) * t * (t - 2.0) / 2.0,
                               (t + 1.0) * t * (t - 1.0) / 6.0])
    nodes = np.floor(u).astype(np.intp)[:, None] + np.arange(-1, 3)
    # node -1 wraps to the grid's end: the DFT's node n_fft - 1, or, for a
    # zero weight, node n + 3, which no sample reaches
    grid = np.zeros(n_fft if np.any(weights[nodes[:, 0] < 0, 0]) else n + 4)
    np.add.at(grid, nodes, weights * ye[:, None])
    bin_width = 1.0 / (n_fft * delta)
    first = math.ceil(0.25 / (span * bin_width))
    top = n_fft // (2 * refine)
    # square only the ranked bins: off the lattice that is half the spectrum
    power = np.abs(np.fft.rfft(grid, n_fft)[first:top + 1])**2
    return (first + int(np.argmax(power))) * bin_width


def _dominant_frequency(x, y, envelope) -> float:
    """Angular frequency of the largest diagonal-Gram power of the
    envelope-weighted data, ``_coarse_scan``'s peak: the discrete-spectrum
    peak generalized to irregular sampling.

    Data with long gaps have near-degenerate frequency basins spaced by
    ~1/span; ranking them with the envelope included picks the right one.
    The scan's bins are at most 1/(4 span) wide, so its peak starts the
    solver inside a basin about 1/span wide, and the solver, which solves
    for the frequency anyway, goes on to the basin's minimum.
    """
    span = x.max() - x.min()
    if span <= 0:
        return 0.0
    return 2.0 * math.pi * float(_coarse_scan(x, (y - y.mean()) * envelope,
                                              span))


def _second_moment_width(x, y) -> float:
    """Envelope width estimate from the y^2-weighted second moment of x."""
    w = y**2
    m2 = float((w * x**2).sum() / w.sum())
    return math.sqrt(2.0 * m2) if m2 > 0 else float(np.max(np.abs(x))) or 1.0


def _flat(y) -> bool:
    return float(np.ptp(y)) < 1e-12 * max(1.0, float(np.max(np.abs(y))))


def fit_damped_sinusoid(data: DataSeries, init: dict | None = None,
                        undamped: bool = False) -> FitResult:
    """Fit y = A exp(-kappa x^2) cos(omega x - phi0), kappa = 1/(2 sigma^2).

    kappa is unbounded; ``undamped`` pins it at 0, the undamped model, for
    the short-time consistency check.  The result reports sigma_alpha =
    1/sqrt(2 kappa), its error sigma^3 se(kappa) as d sigma / d kappa =
    -sigma^3.  A fitted kappa <= 0 reports sigma = inf with error inf and
    "no envelope resolved", and counts as converged; a pinned one reports
    error 0.  The data should span at least one oscillation period;
    constant data are flagged as non-identifiable.
    """
    n_params = 3 if undamped else 4
    if data.n < n_params:
        raise ValueError(f"need at least {n_params} points")
    if _flat(data.y):
        return FitResult({}, {}, math.nan, False,
                         "non-identifiable: data have no variation")
    init = init or {}

    def start(key, guess):      # guess() runs only if init lacks key
        return float(init[key] if key in init else guess())

    kappa0 = 0.0 if undamped else 0.5 / start(
        "sigma_alpha", lambda: _second_moment_width(data.x, data.y))**2
    x2 = data.x**2
    envelope = np.exp(-kappa0 * x2)
    omega0 = start("omega_f",
                   lambda: _dominant_frequency(data.x, data.y, envelope))
    if "amplitude" not in init or "phi0" not in init:
        # Phase and amplitude from a linear solve in (cos, sin) components.
        basis = np.column_stack([envelope * np.cos(omega0 * data.x),
                                 envelope * np.sin(omega0 * data.x)])
        (a, b), *_ = np.linalg.lstsq(basis, data.y, rcond=None)
    amp0 = start("amplitude", lambda: max(math.hypot(a, b), 1e-12))
    phi00 = start("phi0", lambda: math.atan2(b, a))

    def model(p):
        # an undamped fit leaves kappa out of p, pinned at 0
        amp, omega, phi0, kappa = (*p, 0.0)[:4]
        return amp * np.exp(-kappa * x2) * np.cos(omega * data.x - phi0)

    def jacobian(p):
        amp, omega, phi0, kappa = (*p, 0.0)[:4]
        e = np.exp(-kappa * x2)
        phase = omega * data.x - phi0
        cos, sin = e * np.cos(phase), amp * e * np.sin(phase)
        return np.column_stack([cos, -sin * data.x, sin,
                                -amp * cos * x2][:len(p)])

    names = ("amplitude", "omega_f", "phi0", "kappa")
    fit = _finish(names[:n_params], data, model,
                  [amp0, omega0, phi00, kappa0][:n_params], jacobian)
    amp, omega, phi0, kappa = (fit.params.get(name, 0.0) for name in names)
    # The model is unchanged by (A, phi0) -> (-A, phi0 + pi) and by
    # (omega, phi0) -> (-omega, -phi0), so the unbounded optimum folds back
    # to A, omega >= 0 and |phi0| <= pi.
    if amp < 0:
        amp, phi0 = -amp, phi0 + math.pi
    if omega < 0:
        omega, phi0 = -omega, -phi0
    sigma = 1.0 / math.sqrt(2.0 * kappa) if kappa > 0 else math.inf
    errors, message = dict(fit.std_errors), fit.message
    if errors and undamped:
        errors["sigma_alpha"] = 0.0
    elif errors:
        se_kappa = errors.pop("kappa")
        errors["sigma_alpha"] = sigma**3 * se_kappa if kappa > 0 else math.inf
        message = "" if kappa > 0 else "no envelope resolved"
    return FitResult(dict(amplitude=amp, omega_f=omega,
                          phi0=math.remainder(phi0, 2.0 * math.pi),
                          sigma_alpha=sigma),
                     errors, fit.chi2_per_dof, fit.converged, message)


def fit_gaussian_decay(data: DataSeries) -> FitResult:
    """Fit y = A exp(-x^2 / 2 sigma^2) to a decay trace.

    Its Jacobian is scipy's 2-point forward difference: p_i steps by
    sqrt(eps) max(1, |p_i|), with p_i's sign (+ at 0), over the step as
    rounded.  perfbench's fig4 reference records that Jacobian's bias (up
    to 2.7e-6 of sigma), so an exact one waits for ROADMAP item 1.

    The model is even in sigma, so the unbounded optimum folds to |sigma|.
    The fit reports no convergence when the data resolve no decay: when
    kappa = 1/(2 sigma^2) lies within one standard error of 0, which is
    when sigma's standard error is at least half of sigma.
    """
    if data.n < 3:
        raise ValueError("need at least 3 points")
    if _flat(data.y):
        return FitResult({}, {}, math.nan, False,
                         "non-identifiable: constant data leave sigma free")

    def model(p):
        amp, sigma = p
        return amp * np.exp(-data.x**2 / (2.0 * sigma**2))

    def jacobian(p):
        h = np.where(p >= 0, 1.0, -1.0) * math.sqrt(np.finfo(float).eps) \
            * np.maximum(1.0, np.abs(p))
        r = model(p) - data.y
        return np.column_stack([model(p + step) - data.y - r
                                for step in np.diag(h)]) / ((p + h) - p)

    fit = _finish(("amplitude", "sigma"), data, model,
                  [float(np.max(np.abs(data.y))),
                   _second_moment_width(data.x, data.y)], jacobian)
    fit = replace(fit, params=dict(fit.params, sigma=abs(fit.params["sigma"])))
    if fit.converged and fit.std_errors["sigma"] >= 0.5 * fit.params["sigma"]:
        return replace(fit, converged=False,
                       message="the data resolve no decay")
    return fit


# Nodes of the grid over the s_omega bracket that starts the scaled model.
SCALE_GRID = 65


def fit_scaled_model(data: DataSeries, reference: DataSeries) -> FitResult:
    """Fit y = s_eta * curve(s_omega * x) against a tabulated reference.

    The reference curve is the monotone cubic ``numerics.pchip``, NaN off
    the table.  s_omega stays in the bracket [s_lo, s_hi] that keeps every
    rescaled data point on the table: an end whose product with the data
    rounds past the table moves inward by an ulp, and an impossible coverage
    raises with the offending points.  The fit starts from the best of
    ``SCALE_GRID`` nodes over the bracket, with s_eta profiled out in closed
    form at each (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413, 1973), and
    gives the solver the curve's derivative; as the solver accepts no step
    to a NaN sum of squares, it never leaves the bracket.  Zero data, or a
    reference 0 at the data on every node, are non-identifiable.
    """
    if data.n < 2:
        raise ValueError("need at least 2 points")
    if np.any(data.x <= 0) or np.any(reference.x <= 0):
        raise ValueError("scaled-model fit expects positive abscissas")
    order = np.argsort(reference.x)
    ref_x = reference.x[order]
    curve = pchip(ref_x, reference.y[order])

    x_min, x_max = float(data.x.min()), float(data.x.max())
    s_lo, s_hi = float(ref_x[0] / x_min), float(ref_x[-1] / x_max)
    while s_lo * x_min < ref_x[0]:
        s_lo = math.nextafter(s_lo, math.inf)
    while s_hi * x_max > ref_x[-1]:
        s_hi = math.nextafter(s_hi, -math.inf)
    if s_lo > s_hi:
        raise ValueError(
            "reference curve cannot cover the rescaled abscissas; "
            f"conflicting data points at x = {[x_min, x_max]}")

    weights = 1.0 / data.sigma_y if data.sigma_y is not None else 1.0
    grid = np.linspace(s_lo, s_hi, SCALE_GRID)
    columns = curve(grid[:, None] * data.x)[0] * weights
    cy = np.einsum("gn,n->g", columns, data.y * weights)
    cc = np.einsum("gn,gn->g", columns, columns)
    if not (np.any(data.y) and np.any(cc)):
        return FitResult({}, {}, math.nan, False, "non-identifiable: zero "
                         "data or reference leave s_omega free")
    best = int(np.argmax(np.divide(cy**2, cc, out=np.full(cc.size, -1.0),
                                   where=cc > 0)))

    def model(p):
        s_eta, s_omega = p
        return s_eta * curve(s_omega * data.x)[0]

    def jacobian(p):
        s_eta, s_omega = p
        value, slope = curve(s_omega * data.x)
        return np.column_stack([value, s_eta * slope * data.x])

    return _finish(("s_eta", "s_omega"), data, model,
                   [cy[best] / cc[best], grid[best]], jacobian)
