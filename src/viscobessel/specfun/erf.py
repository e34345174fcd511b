"""Scaled complementary error function.

erfcx(x) = exp(x^2) * erfc(x) is the quantity the viscoelastic relaxation
moduli actually need (it stays O(1/x) instead of underflowing).

Evaluation regions (validated against high-precision references):

* 0 <= x <= ERFCX_CF_MIN: erfcx = exp(x^2) - (2/sqrt(pi)) * S(x) with the
  all-positive series S(x) = sum_n 2^n x^(2n+1) / (1*3*...*(2n+1)); the
  subtraction leaves up to 2.4e-13 relative error (2.39e-13 at x = 1.9765).
* ERFCX_CF_MIN < x <= ERFCX_ASYM_MIN: the Laplace continued fraction
  sqrt(pi) erfcx(x) = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...)))),
  evaluated with the modified Lentz algorithm; its start value 1e-300 leaves
  a relative error 1e-300 x, so it stops at ERFCX_ASYM_MIN.
* x > ERFCX_ASYM_MIN: (1/sqrt(pi))/x, off by 1/(2x^2) < 5e-17 relative.
* x < 0: the reflection erfcx(x) = 2 exp(x^2) - erfcx(-x), which overflows for
  x < -26.6 (no caller evaluates there).

erfcx maps a scalar to a float and an array to an ndarray of its shape.  Each
region is a masked loop in which an element takes the scalar iteration's steps
and stops at the same term, bit for bit.  exp(x^2) goes through libm (math.exp,
mapped over the elements): numpy's SIMD exp differs from it in the last bit for
a few percent of arguments.
"""

import math
from itertools import count

import numpy as np

from ..errors import check_array

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_SQRT_PI = math.sqrt(math.pi)

# Series/continued-fraction switchover: measured against mpmath, the series
# is within 2.4e-13 relative below it and the fraction within 3e-15 above.
ERFCX_CF_MIN = 2.0
ERFCX_ASYM_MIN = 1e8


def _iterate(step, *state) -> np.ndarray:
    """Run done = step(k, *state), which updates state in place, for k = 1, 2, ...
    and give each element's state[0] from the step at which its done flag first
    rises.  Finished elements ride along (their later states are unused) until
    they make up a quarter of the carried arrays, which are then compacted."""
    out, held = np.empty(len(state[0])), np.empty(len(state[0]))
    idx, finished = np.arange(len(out)), np.zeros(len(out), dtype=bool)
    for k in count(1):
        if not len(idx):
            return out
        new = np.greater(step(k, *state), finished)  # done & ~finished
        np.copyto(held, state[0], where=new)
        finished |= new
        if 4 * np.count_nonzero(finished) >= len(idx):
            out[idx[finished]] = held[finished]
            keep = np.flatnonzero(~finished)
            idx, *state = (s[keep] for s in (idx, *state))
            held, finished = held[: len(idx)], np.zeros(len(idx), dtype=bool)


def _series_step(n, total, term, two_x2):
    """One series term; after a zero term every later one is zero, so stop there."""
    term *= two_x2 / (2 * n + 1)
    total += term
    return (term < 1e-17 * total) | (term == 0.0) | (n > 200)


def _cf_step(j, f, c, d, x):
    """One modified-Lentz step in place; c, d >= x > ERFCX_CF_MIN, so no zero guard fires."""
    a = 1.0 if j == 1 else 0.5 * (j - 1)
    np.divide(1.0, np.add(x, np.multiply(a, d, out=d), out=d), out=d)  # d = 1/(x + a d)
    np.add(x, np.divide(a, c, out=c), out=c)  # c = x + a/c
    delta = c * d
    f *= delta
    # |delta - 1| < 1e-16 iff delta == 1: the doubles next to 1 are 1.1e-16, 2.2e-16 away
    return (delta == 1.0) | (j >= 400)


def erfcx(x):
    """Scaled complementary error function exp(x^2) erfc(x), elementwise."""
    arr = check_array(x, "erfcx requires finite x")
    flat = arr.ravel()
    ax, out = np.abs(flat), np.empty(flat.size)
    series, big, neg = ax <= ERFCX_CF_MIN, ax > ERFCX_ASYM_MIN, flat < 0.0
    cf = ~(series | big)
    out[big] = (1.0 / _SQRT_PI) / ax[big]
    tiny = np.full(np.count_nonzero(cf), 1e-300)  # Lentz's f_0 = c_0
    out[cf] = _iterate(_cf_step, tiny, tiny.copy(), 0.0 * tiny, ax[cf]) / _SQRT_PI
    # exp(x^2) overflows near |x| = 26.6; let OverflowError propagate.
    need_exp = series | neg
    exp_x2 = np.fromiter(map(math.exp, np.square(flat[need_exp]).tolist()), float)
    x = ax[series]
    out[series] = exp_x2[series[need_exp]] - _TWO_OVER_SQRT_PI * _iterate(
        _series_step, x, x.copy(), 2.0 * x * x)
    out[neg] = 2.0 * exp_x2[neg[need_exp]] - out[neg]
    return out.reshape(arr.shape) if arr.ndim else float(out[0])
