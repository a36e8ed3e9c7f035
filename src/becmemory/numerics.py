"""numpy kernels: erf, i0e, quadrature and pchip.

``erf`` and ``i0e`` evaluate the Cephes approximations (Moshier) that
scipy.special evaluates too.  ``quad`` is the vector-valued adaptive
Gauss-Kronrod 21 rule of scipy's ``quad_vec`` (QUADPACK; Piessens et al.
1983), calling the integrand once per round for all new intervals.
``pchip`` is scipy's monotone cubic interpolant, for the scaled-model fit.
"""

import math
import sys

import numpy as np

# Cephes ndtr.c: erf(x) = x T(x^2)/U(x^2) for |x| <= 1, else
# 1 - exp(-x^2) P(|x|)/Q(|x|).  erfc(6) = 2.2e-17 is below half an ulp of
# 1, so erf is +-1 from |x| = 6 on and Cephes' R/S pair (|x| >= 8) is moot.
_ERF_T = (9.604973739870516, 90.02601972038427, 2232.005345946843,
          7003.325141128051, 55592.30130103949)
_ERF_U = (1.0, 33.56171416475031, 521.3579497801527, 4594.323829709801,
          22629.000061389095, 49267.39426086359)
_ERF_P = (2.461969814735305e-10, 0.5641895648310689, 7.463210564422699,
          48.63719709856814, 196.5208329560771, 526.4451949954773,
          934.5285271719576, 1027.5518868951572, 557.5353353693994)
_ERF_Q = (1.0, 13.228195115474499, 86.70721408859897, 354.9377788878199,
          975.7085017432055, 1823.9091668790973, 2246.3376081871097,
          1656.6630919416134, 557.5353408177277)
ERF_SATURATION = 6.0

# Cephes i0.c: I0(x) exp(-x) is a Chebyshev series in x/2 - 2 for x <= 8,
# and in 32/x - 2 times 1/sqrt(x) beyond; np.i0 sums the same series.
_I0_A = (-4.4153416464793395e-18, 3.3307945188222384e-17,
         -2.431279846547955e-16, 1.715391285555133e-15,
         -1.1685332877993451e-14, 7.676185498604936e-14,
         -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
         9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
         -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
         1.1173875391201037e-06, -4.4167383584587505e-06,
         1.6448448070728896e-05, -5.754195010082104e-05,
         0.00018850288509584165, -0.0005763755745385824, 0.0016394756169413357,
         -0.004324309995050576, 0.010546460394594998, -0.02373741480589947,
         0.04930528423967071, -0.09490109704804764, 0.17162090152220877,
         -0.3046826723431984, 0.6767952744094761)
_I0_B = (-7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17,
         3.461222867697461e-17, -2.8276239805165836e-16,
         -3.425485619677219e-16, 1.7725601330565263e-15,
         3.8116806693526224e-15, -9.554846698828307e-15,
         -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
         7.180124451383666e-13, -1.7941785315068062e-12,
         -1.3215811840447713e-11, -3.1499165279632416e-11,
         1.1889147107846439e-11, 4.94060238822497e-10, 3.3962320257083865e-09,
         2.266668990498178e-08, 2.0489185894690638e-07, 2.8913705208347567e-06,
         6.889758346916825e-05, 0.0033691164782556943, 0.8044904110141088)

# QUADPACK qk21 on [-1, 1]: the non-negative Kronrod nodes and their
# weights, and the weights of the Gauss nodes among them (odd positions).
_XK = np.array([0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
                0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
                0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
                0.14887433898163122, 0.0])
_WK = np.array([0.011694638867371874, 0.032558162307964725,
                0.054755896574351995, 0.07503967481091996, 0.0931254545836976,
                0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
                0.14277593857706009, 0.14773910490133849, 0.1494455540029169])
_WG = np.array([0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
                0.26926671930999635, 0.29552422471475287])
_X = np.concatenate([_XK, -_XK[-2::-1]])
_V = np.concatenate([_WK, _WK[-2::-1]])
_W = np.concatenate([_WG, _WG[::-1]])
QUAD_BATCH = 128     # most intervals split per round, as in quad_vec


def _horner(x, coef):
    out = coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def erf(x):
    """Error function, elementwise; a scalar in gives a scalar out."""
    x = np.asarray(x, float)
    ax = np.abs(x)
    out = np.sign(x, out=np.empty_like(x))    # +-1, and nan for nan
    inner = ax <= 1.0
    z = x[inner]
    out[inner] = z * _horner(z * z, _ERF_T) / _horner(z * z, _ERF_U)
    outer = (ax > 1.0) & (ax < ERF_SATURATION)
    z = ax[outer]
    out[outer] = np.copysign(1.0 - np.exp(-z * z) * _horner(z, _ERF_P)
                             / _horner(z, _ERF_Q), x[outer])
    return out[()]


def _chbevl(x, coef):
    """Chebyshev series of ``coef`` at x, summed as Cephes chbevl.c does."""
    b0, b1, b2 = coef[0], 0.0, 0.0
    for c in coef[1:]:
        b0, b1, b2 = x * b0 - b1 + c, b0, b1
    return 0.5 * (b0 - b2)


def i0e(x):
    """Exponentially scaled modified Bessel function I0(x) exp(-|x|)."""
    x = np.asarray(np.abs(x), float)
    out = np.empty_like(x)
    low = x <= 8.0
    out[low] = _chbevl(x[low] / 2.0 - 2.0, _I0_A)
    out[~low] = _chbevl(32.0 / x[~low] - 2.0, _I0_B) / np.sqrt(x[~low])
    return out[()]


def gauss_legendre(n: int):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule.

    Newton's iteration on the three-term recurrence from Tricomi's guess
    (Hale & Townsend 2013), w = 2 / ((1 - x^2) P_n'(x)^2), symmetrized; no
    eigen-solve as in leggauss, so no BLAS threads wake.
    """
    k = np.arange(n, 0, -1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(math.pi * (4 * k - 1)
                                                 / (4 * n + 2))
    for _ in range(100):
        p, p_prev, dp = x, np.ones_like(x), np.ones_like(x)
        for j in range(2, n + 1):
            p, p_prev, dp = ((2 * j - 1) * x * p - (j - 1) * p_prev) / j, \
                p, j * p + x * dp
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 2.0 * sys.float_info.epsilon:
            break
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp**2)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def _norm(x):
    """2-norm over the values (axis 0), quad_vec's default norm."""
    return np.sqrt(np.sum(x * x, axis=0))


def _gk21(f, lo, hi):
    """Gauss-Kronrod 21 sums on the intervals [lo, hi] from one f call:
    the integrals (values x intervals), quad_vec's error estimate and
    rounding bound per interval, and the shape of one value."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fv = np.asarray(f((c[:, None] + h[:, None] * _X).ravel()), float)
    shape = fv.shape[:-1]
    fv = fv.reshape(-1, lo.size, _X.size)
    s_k = fv @ _V
    err = _norm((s_k - fv[..., 1::2] @ _W) * h)
    dabs = _norm((np.abs(fv - 0.5 * s_k[..., None]) @ _V) * h)
    ok = (dabs != 0) & (err != 0)
    err[ok] = dabs[ok] * np.minimum(1.0, (200.0 * err[ok] / dabs[ok])**1.5)
    rnd = _norm(50 * sys.float_info.epsilon * h * (np.abs(fv) @ _V))
    err = np.where(rnd > sys.float_info.min, np.maximum(err, rnd), err)
    return h * s_k, err, rnd, shape


def quad(f, a, b, epsabs=1e-200, epsrel=1e-8, limit=10000):
    """Adaptive integral of ``f`` over the finite [a, b]: (value, abserr).

    ``f`` takes a 1-D array of nodes and returns its values with the nodes
    on the last axis: shape (k,) for a scalar integrand, whose value is
    then a float, or (..., k).  Each round halves the intervals of largest
    error, as many as quad_vec would (at most QUAD_BATCH).  It stops when
    the summed error estimate (a 2-norm over the values) is below
    max(epsabs, epsrel |value|) / 8 or below the summed rounding error, or
    is not finite (the value then is not either), or at ``limit``
    intervals.  abserr adds both error sums.
    """
    lo, hi = np.array([float(a)]), np.array([float(b)])
    ints, errs, rnds, shape = _gk21(f, lo, hi)
    total, error, rounding = ints[:, 0], errs[0], rnds[0]
    while lo.size < limit:
        tol = max(epsabs, epsrel * _norm(total))
        order = np.lexsort((lo, -errs))
        popped = np.cumsum(errs[order[:min(lo.size, QUAD_BATCH) - 1]])
        n = min(1 + np.count_nonzero(popped <= error - tol / 8),
                limit - lo.size)
        split, keep = order[:n], order[n:]
        mid = 0.5 * (lo[split] + hi[split])
        lo = np.concatenate([lo[keep], lo[split], mid])
        hi = np.concatenate([hi[keep], mid, hi[split]])
        new_ints, new_errs, new_rnds, _ = _gk21(f, lo[-2 * n:], hi[-2 * n:])
        total = total + (new_ints[:, :n] + new_ints[:, n:]
                         - ints[:, split]).sum(axis=1)
        error += (new_errs[:n] + new_errs[n:] - errs[split]).sum()
        rounding += new_rnds.sum()
        ints = np.concatenate([ints[:, keep], new_ints], axis=1)
        errs = np.concatenate([errs[keep], new_errs])
        if error < max(epsabs, epsrel * _norm(total)) / 8 \
                or error < rounding or not math.isfinite(error + rounding):
            break
    value = float(total[0]) if shape == () else total.reshape(shape)
    return value, float(error + rounding)


def pchip(x, y):
    """Monotone cubic through (x, y), x strictly increasing, a line for two
    nodes: a function of t giving (value, derivative), NaN off [x[0], x[-1]].

    The slopes are scipy's ``PchipInterpolator``'s (Fritsch & Carlson, SIAM
    J. Numer. Anal. 17, 238, 1980): the weighted harmonic mean of the two
    neighbouring secants, 0 at a sign change or a 0 secant, and at the ends
    the one-sided three-point estimate within scipy's sign and 3x limits.
    """
    x, y = np.asarray(x, float), np.asarray(y, float)
    if x.ndim != 1 or x.size < 2 or not np.all(np.diff(x) > 0):
        raise ValueError("pchip needs 2 or more strictly increasing x")
    h, m = np.diff(x), np.diff(y) / np.diff(x)
    d = np.full(x.size, m[0] if x.size == 2 else 0.0)
    if x.size > 2:      # the mean only where the secants share a sign
        same = np.sign(m[:-1]) * np.sign(m[1:]) > 0
        w1, w2 = (2.0 * h[1:] + h[:-1])[same], (h[1:] + 2.0 * h[:-1])[same]
        d[1:-1][same] = (w1 + w2) / (w1 / m[:-1][same] + w2 / m[1:][same])
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        end = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        end = np.where(np.sign(end) == np.sign(m0), end, 0.0)
        big = (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0))
        d[[0, -1]] = np.where(big, 3.0 * m0, end)
    c3 = (d[:-1] + d[1:] - 2.0 * m) / h     # y + s (d + s (c2 + s c3))
    c2, c3 = (m - d[:-1]) / h - c3, c3 / h

    def curve(t):
        k = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
        on = (t >= x[0]) & (t <= x[-1])
        s = np.where(on, t - x[k], 0.0)     # no overflow off the table
        value = y[k] + s * (d[k] + s * (c2[k] + s * c3[k]))
        slope = d[k] + s * (2.0 * c2[k] + 3.0 * s * c3[k])
        return np.where(on, value, np.nan), np.where(on, slope, np.nan)
    return curve
