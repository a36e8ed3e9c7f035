"""numpy kernels of the efficiency layer: erf, i0e and adaptive quadrature.

``erf`` and ``i0e`` evaluate the Cephes approximations (Moshier) that
scipy.special evaluates too.  ``quad`` is the vector-valued adaptive
Gauss-Kronrod 21 rule of scipy's ``quad_vec`` (QUADPACK; Piessens et al.
1983), calling the integrand once per round for all new intervals.
"""

import math
import sys

import numpy as np

try:        # the Cephes i0 Chebyshev series behind np.i0
    from numpy.lib._function_base_impl import _chbevl, _i0A, _i0B
except ImportError:                                     # numpy < 2
    from numpy.lib.function_base import _chbevl, _i0A, _i0B

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


def i0e(x):
    """Exponentially scaled modified Bessel function I0(x) exp(-|x|)."""
    x = np.asarray(np.abs(x), float)
    out = np.empty_like(x)
    low = x <= 8.0
    out[low] = _chbevl(x[low] / 2.0 - 2.0, _i0A)
    out[~low] = _chbevl(32.0 / x[~low] - 2.0, _i0B) / np.sqrt(x[~low])
    return out[()]


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
