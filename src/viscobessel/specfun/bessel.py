"""Bessel functions of real order nu > -1: J_nu and contiguous I-ratios.

Evaluation regions
------------------
``bessel_j``:
    * x <= J_SERIES_MAX: ascending power series.  The series alternates, so
      roundoff grows like eps * I_nu(x) ~ eps * e^x; at the switchover this
      is ~2e-11 absolute, inside the 1e-10 budget.
    * x >  J_SERIES_MAX: Hankel's large-argument expansion
      J_nu(x) = sqrt(2/(pi x)) [P cos(w) - Q sin(w)], w = x - (nu/2 + 1/4) pi,
      truncated adaptively at its smallest term.  Against scipy's jv on
      (0, 650], J_nu is within 7e-12 up to order 7.6.  Above it Hankel has not
      converged just past 14: at order 8 it is off by 0.36 on (14, 15.4], a
      gap between zeros, so zero tables (zeros.ORDER_MAX) stay right to order 8.

``bessel_i_ratio``:
    Ratios of contiguous orders I_{mu+1}/I_mu via the Gauss continued
    fraction I_{mu+1}(z)/I_mu(z) = z/(2(mu+1) + z^2/(2(mu+2) + ...)),
    evaluated with the modified Lentz algorithm in float or complex
    arithmetic.  The fraction needs O(|z|) convergents, so for real
    z >= RATIO_ASYM_MIN the ratio is instead formed as the quotient of the
    two large-argument expansions (their exponential prefactors cancel
    exactly), which stays accurate out to arbitrarily large real arguments
    (Laplace-domain callers evaluate up to sqrt(s) ~ 1e8).

    An mpmath scalar -- a node of the high-precision Talbot oracle -- is
    handed to mpmath's own ``besseli`` at the caller's working precision.
    mpmath is imported only on that branch, so float and complex callers
    never load it; a caller holding an mpmath scalar has loaded it already.
"""

import cmath
import math

from ..errors import DomainError, check_order
from .gamma import gamma_fn

J_SERIES_MAX = 14.0
RATIO_ASYM_MIN = 100.0

_LENTZ_TINY = 1e-300

# Per-step constants of the Hankel sums for m = 1..59:
# ((2m-1)^2, 8m, whether a_m/x^m enters P (even m), the sign (-1)^(m//2)).
_HANKEL_STEPS = tuple(
    (float((2 * m - 1) ** 2), 8.0 * m, m % 2 == 0, -1.0 if (m // 2) % 2 else 1.0)
    for m in range(1, 60)
)


def _ascending_series(nu, x):
    """sum_k (-1)^k (x/2)^(nu+2k) / (k! Gamma(nu+k+1))."""
    q = 0.25 * x * x
    term = (0.5 * x) ** nu / gamma_fn(nu + 1.0)
    total = term
    for k in range(400):
        term *= -q / ((k + 1.0) * (nu + k + 1.0))
        total += term
        if abs(term) < 1e-18 * (abs(total) + 1e-300) and k >= 3:
            return total
    return total


def _hankel_pq(nu, x):
    """P and Q sums of Hankel's expansion, truncated at the smallest term."""
    mu = 4.0 * nu * nu
    p = 1.0
    q = 0.0
    term = 1.0
    prev = math.inf
    for odd_sq, eight_m, enters_p, sign in _HANKEL_STEPS:
        term *= (mu - odd_sq) / (eight_m * x)
        size = abs(term)
        if size >= prev or size < 1e-18:
            break
        prev = size
        if enters_p:
            p += sign * term
        else:
            q += sign * term
    return p, q


def _j(nu: float, x: float) -> float:
    """J_nu(x) for a float order nu > -1 and a float x > 0, unchecked."""
    if x <= J_SERIES_MAX:
        return _ascending_series(nu, x)
    p, q = _hankel_pq(nu, x)
    w = x - (0.5 * nu + 0.25) * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(w) - q * math.sin(w))


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind J_nu(x), nu > -1, x >= 0.

    Absolute error is below 1e-10 out to x ~ 650 (beyond the 200th positive
    zero) for order <= 7.6, the range verified against scipy; past it the
    result can be wrong just above x = 14 (module doc).
    """
    nu = check_order(nu)
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"bessel_j requires finite x >= 0, got {x!r}")
    if x == 0.0:
        if nu == 0.0:
            return 1.0
        if nu > 0.0:
            return 0.0
        raise DomainError(f"J_nu(0) diverges for nu < 0 (nu = {nu!r})")
    return _j(nu, x)


def _ratio_up_cf(mu, z):
    """I_{mu+1}(z)/I_mu(z) by the Gauss continued fraction (float or complex z)."""
    z2 = z * z
    f = _LENTZ_TINY
    c = f
    d = 0.0
    n_max = int(8 * abs(z)) + 400
    for j in range(1, n_max):
        a = z if j == 1 else z2
        b = 2.0 * (mu + j)
        d = b + a * d
        if d == 0:
            d = _LENTZ_TINY
        c = b + a / c
        if c == 0:
            c = _LENTZ_TINY
        d = 1.0 / d
        delta = c * d
        f = f * delta
        if abs(delta - 1.0) < 1e-16 and j > 2:
            return f
    raise DomainError(
        f"continued fraction for I-ratio did not converge for |z| = {abs(z):.3g}"
    )


def _asym_sum(nu, x):
    """Adaptive large-argument sum A(nu, x) = sum_k (-1)^k a_k(nu)/x^k.

    Truncated at the smallest term, which for x >= RATIO_ASYM_MIN is below
    1e-15 relative.
    """
    mu = 4.0 * nu * nu
    total = 1.0
    term = 1.0
    prev = math.inf
    for m in range(1, 60):
        term *= -(mu - (2 * m - 1) ** 2) / (8.0 * m * x)
        if abs(term) >= prev or abs(term) < 1e-19:
            break
        prev = abs(term)
        total += term
    return total


def bessel_i_ratio(nu_num: float, nu_den: float, z):
    """Ratio I_{nu_num}(z) / I_{nu_den}(z) for contiguous orders.

    Requires |nu_num - nu_den| = 1 and both orders finite and > -1.  Accepts
    finite real positive z, finite nonzero complex z off the negative real
    axis, and mpmath scalars (evaluated by mpmath at its working precision);
    the float and complex routes never go through an overflowing intermediate.
    """
    nu_num, nu_den = check_order(nu_num), check_order(nu_den)
    if abs(abs(nu_num - nu_den) - 1.0) > 1e-12:
        raise DomainError(f"ratio orders must differ by exactly 1, got {nu_num!r}, {nu_den!r}")
    mu = min(nu_num, nu_den)
    if isinstance(z, (int, float)):
        z = float(z)
        if not math.isfinite(z) or z <= 0.0:
            raise DomainError(f"real ratio argument must be finite and > 0, got {z!r}")
        if z >= RATIO_ASYM_MIN:
            up = _asym_sum(mu + 1.0, z) / _asym_sum(mu, z)
        else:
            up = _ratio_up_cf(mu, z)
    elif z == 0 or not cmath.isfinite(complex(z)):
        raise DomainError(f"ratio argument must be finite and nonzero, got {z!r}")
    elif type(z).__module__.startswith("mpmath"):
        from mpmath import mp

        return mp.besseli(nu_num, z) / mp.besseli(nu_den, z)
    else:
        up = _ratio_up_cf(mu, z)
    if nu_num > nu_den:
        return up
    return 1.0 / up
