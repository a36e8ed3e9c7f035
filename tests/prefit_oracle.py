"""Reference frequency zoom for the sinusoid fit's start, used by the tests.

``fitting._dominant_frequency`` starts the solver at the coarse scan's
peak.  This module zooms that peak onto the largest fully profiled
variance, so the tests can rank the coarse scan against a direct scan and
check that the solver reaches the same minimum from either start.
``maximize`` is Brent's method on a bracket; it and ``_explained_by``
return to ``src`` only with a caller there.
"""

import math
import sys

import numpy as np

from becmemory.fitting import _coarse_scan

# The cos and sin columns of a trial frequency count as parallel where the
# smaller principal value of their 2x2 Gram matrix is at most this fraction
# of its trace; the sine axis is then rounding noise.
GRAM_RTOL = 1e-12
# Grid points of the zoom over its +-2 step window, and the width, in steps,
# to which Brent's method narrows the bracket around the best.
ZOOM_POINTS = 17
ZOOM_XTOL = 1e-7
# Past ZOOM_XTOL steps golden-section steps go on while the two best values
# differ by more than ZOOM_FTOL of the larger, down to a bracket ZOOM_XMIN
# of the frequency wide, a few dozen ulps.  At a smooth peak the values
# agree by then.  At the edge of the band around a lattice's Nyquist
# frequency, where the sine term is dropped, the variance jumps, and the
# largest value lies at the edge itself, which the bracket narrows onto.
ZOOM_FTOL = 1e-12
ZOOM_XMIN = 1e-14


def maximize(f, lo, hi, x, fx, xtol, ftol=math.inf, xmin=0.0):
    """Point of the largest f found in [lo, hi], from x in it, fx = f(x).

    Brent's method (*Algorithms for Minimization without Derivatives*, 1973,
    ch. 5; scipy's ``fminbound``) narrows the bracket to ``xtol`` by steps
    no shorter than xtol/4.  Golden-section steps then go on while the two
    best values differ by more than ``ftol`` of the larger, down to a
    bracket ``xmin`` > 0 of its larger end wide: so it narrows onto a jump
    of f whose largest value lies at the jump.
    """
    w, fw, v, fv, d, e = x, fx, x, fx, 0.0, 0.0
    while hi - lo > xtol or (abs(fx - fw) > ftol * max(abs(fx), abs(fw))
                             and hi - lo > xmin * max(abs(lo), abs(hi))):
        brent = hi - lo > xtol
        tol = sys.float_info.epsilon * abs(x) + (0.25 * xtol if brent else 0)
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
        p, q, last, e = -p if q > 0 else p, abs(q), e, d
        if brent and abs(last) > tol and abs(p) < abs(0.5 * q * last) \
                and q * (lo - x) < p < q * (hi - x):
            d = p / q
            if min(x + d - lo, hi - x - d) < 2.0 * tol:
                d = math.copysign(tol, 0.5 * (lo + hi) - x)
        else:       # golden section of the larger part
            e = (lo if x >= 0.5 * (lo + hi) else hi) - x
            d = 0.5 * (3.0 - math.sqrt(5.0)) * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu >= fx:
            lo, hi = (x, hi) if u >= x else (lo, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            lo, hi = (u, hi) if u < x else (lo, u)
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v in (x, w):
                v, fv = u, fu
    return x


def _explained_by(x, ye, e2):
    """Variance of ``ye`` explained by a sinusoid at each trial frequency,
    as a function of the frequencies, which centres x and sums e2 once.

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
    sum_e2 = e2.sum()

    def explained(freqs):
        phase = np.exp(-2j * math.pi * freqs[:, None] * x)
        # The sums over samples go through einsum, not ``@``: OpenBLAS hands
        # a complex matrix-vector product of a few thousand elements to its
        # worker threads, which then spin on a second core between calls and
        # make the fit's speed depend on whatever else runs on the machine.
        z1 = np.einsum("fn,n->f", phase, ye)     # sum ye (cos - i sin)
        rotation = np.exp(-0.5j * np.angle(np.einsum("fn,n->f",
                                                     phase * phase, e2)))
        z1 = z1 * rotation                       # the same, rotated
        sin2 = np.einsum("fn,n->f", (phase * rotation[:, None]).imag**2, e2)
        parallel = sin2 <= GRAM_RTOL * sum_e2
        return z1.real**2 / (sum_e2 - sin2) + np.where(
            parallel, 0.0, z1.imag**2 / np.where(parallel, 1.0, sin2))
    return explained


def _zoom(x, ye, e2, best, step):
    """Frequency of the largest profiled variance within +-2 steps of best.

    ``ZOOM_POINTS`` evenly spaced frequencies rank the window; Brent's
    method (``maximize``) then narrows the bracket between the best node's
    neighbours, from that node, to ``ZOOM_XTOL`` steps, and further while
    its two best values differ by more than ``ZOOM_FTOL`` (see there).  At
    an edge node the bracket reaches one spacing past the window, where the
    peak then lies.
    """
    freqs = np.linspace(max(best - 2.0 * step, 0.0), best + 2.0 * step,
                        ZOOM_POINTS)
    explained = _explained_by(x, ye, e2)
    values = explained(freqs)
    k = int(np.argmax(values))
    spacing = freqs[1] - freqs[0]
    return maximize(lambda f: explained(np.array([f]))[0],
                    max(freqs[k] - spacing, 0.0), freqs[k] + spacing,
                    freqs[k], values[k], ZOOM_XTOL * step, ZOOM_FTOL,
                    ZOOM_XMIN)


def zoomed_frequency(x, y, envelope) -> float:
    """Angular frequency of the largest profiled variance near the coarse
    scan's peak: the zoom's steps are 1/(4 span), so that its +-2 step
    window reaches the profiled peak, which can sit a tenth of 1/span from
    the diagonal-Gram one."""
    span = x.max() - x.min()
    if span <= 0:
        return 0.0
    ye = (y - y.mean()) * envelope
    best = _coarse_scan(x, ye, span)
    return 2.0 * math.pi * float(_zoom(x, ye, envelope**2, best,
                                       0.25 / span))
