"""Scaled complementary error function.

erfcx(x) = exp(x^2) * erfc(x) is the quantity the viscoelastic relaxation
moduli actually need (it stays O(1/x) instead of underflowing).

Evaluation regions (validated against high-precision references):

* 0 <= x <= ERFCX_CF_MIN: erfcx = exp(x^2) - (2/sqrt(pi)) * S(x) with the
  all-positive series S(x) = sum_n 2^n x^(2n+1) / (1*3*...*(2n+1)); the
  subtraction loses < 2 digits on this range.
* ERFCX_CF_MIN < x <= ERFCX_ASYM_MIN: the Laplace continued fraction
  sqrt(pi) erfcx(x) = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...)))),
  evaluated with the modified Lentz algorithm; its start value 1e-300 leaves
  a relative error 1e-300 x, so it stops at ERFCX_ASYM_MIN.
* x > ERFCX_ASYM_MIN: (1/sqrt(pi))/x, off by 1/(2x^2) < 5e-17 relative.
* x < 0: the reflection erfcx(x) = 2 exp(x^2) - erfcx(-x), which overflows for
  x < -26.6 (no caller evaluates there).

erfcx maps a scalar to a float and an array to an ndarray of its shape.  Each
region is a masked loop in which an element takes the scalar iteration's steps
and stops at the same term, bit for bit.  exp(x^2) goes through libm (libm_map):
numpy's SIMD exp differs from it in the last bit for a few percent of arguments.
"""

import math
from itertools import count, repeat

import numpy as np

from ..errors import check_array

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_SQRT_PI = math.sqrt(math.pi)

# Series/continued-fraction switchover; chosen so both branches deliver
# <= 1e-13 relative error on their side of the split.
ERFCX_CF_MIN = 2.0
ERFCX_ASYM_MIN = 1e8


def libm_map(fn, x, *args) -> np.ndarray:
    """fn(v, *args) for each element v of x, fn being libm-backed (math.exp, pow)."""
    vals = map(fn, np.ravel(x).tolist(), *map(repeat, args))
    return np.fromiter(vals, float, np.size(x)).reshape(np.shape(x))


def _iterate(step, *state) -> np.ndarray:
    """Run (done, *state) = step(k, *state) for k = 1, 2, ... on each element and
    give its state[0] from the step at which its done flag first rises.  Finished
    elements ride along (their later states are unused) until they make up a
    quarter of the carried arrays, which are then compacted."""
    out = np.empty(len(state[0]))
    idx = np.arange(len(out))
    finished = np.zeros(len(out), dtype=bool)
    for k in count(1):
        if not len(idx):
            return out
        done, *state = step(k, *state)
        new = done & ~finished
        if new.any():
            out[idx[new]] = state[0][new]
            finished |= new
            if 4 * np.count_nonzero(finished) >= len(idx):
                keep = ~finished
                idx, finished, *state = (s[keep] for s in (idx, finished, *state))


def _series_step(n, total, term, two_x2):
    """One series term; after a zero term every later one is zero, so stop there."""
    term = term * (two_x2 / (2 * n + 1))
    total = total + term
    return (term < 1e-17 * total) | (term == 0.0) | (n > 200), total, term, two_x2


def _cf_step(j, f, c, d, x):
    """One modified-Lentz step; c, d >= x > ERFCX_CF_MIN, so no zero guard fires."""
    a = 1.0 if j == 1 else 0.5 * (j - 1)
    d = 1.0 / (x + a * d)
    c = x + a / c
    delta = c * d
    f = f * delta
    # |delta - 1| < 1e-16 iff delta == 1: the doubles next to 1 are 1.1e-16, 2.2e-16 away
    return (delta == 1.0) | (j >= 400), f, c, d, x


def erfcx(x):
    """Scaled complementary error function exp(x^2) erfc(x), elementwise."""
    arr = check_array(x, "erfcx requires finite x")
    flat = arr.ravel()
    ax, out = np.abs(flat), np.empty(flat.size)
    series, big, neg = ax <= ERFCX_CF_MIN, ax > ERFCX_ASYM_MIN, flat < 0.0
    cf = ~(series | big)
    out[big] = (1.0 / _SQRT_PI) / ax[big]
    tiny = np.full(np.count_nonzero(cf), 1e-300)  # Lentz's f_0 = c_0
    out[cf] = _iterate(_cf_step, tiny, tiny, 0.0 * tiny, ax[cf]) / _SQRT_PI
    # exp(x^2) overflows near |x| = 26.6; let OverflowError propagate.
    need_exp = series | neg
    exp_x2 = libm_map(math.exp, flat[need_exp] * flat[need_exp])
    x = ax[series]
    out[series] = exp_x2[series[need_exp]] - _TWO_OVER_SQRT_PI * _iterate(
        _series_step, x, x, 2.0 * x * x)
    out[neg] = 2.0 * exp_x2[neg[need_exp]] - out[neg]
    return out.reshape(arr.shape) if arr.ndim else float(out[0])
