"""Fractional Maxwell model of order 1/2 and its one-parameter asymptotic kin.

Fractional Maxwell (coefficients a1, b1 > 0), constitutive law
sigma + a1 D^{1/2} sigma = b1 D^{1/2} eps with Caputo derivatives:

    s Jt_M(s) = (1 + a1 sqrt(s)) / (b1 sqrt(s))
    s Gt_M(s) = b1 sqrt(s) / (1 + a1 sqrt(s))
    J_M(t) = (a1/b1) (1 + 2 sqrt(t) / (a1 sqrt(pi)))
    G_M(t) = (b1/a1) E_{1/2}(-sqrt(t)/a1)

Asymptotic Maxwell-like family (parameter nu > -1), defined by the creep
transform s Jt_as(s; nu) = 1 + 2(nu+1)/sqrt(s), which is the large-s
behaviour of the Bessel family:

    J_as(t; nu) = 1 + 4(nu+1) sqrt(t) / sqrt(pi)
    G_as(t; nu) = E_{1/2}(-2(nu+1) sqrt(t))

The two are the same object: a1 = b1 = 1/(2(nu+1)) turns the fractional
Maxwell expressions into the asymptotic ones exactly, a fact the test-suite
holds the implementations to.

Both creep rates behave like t^{-1/2} near zero, so besides the material
functions this module exposes their exact primitives int_0^T J and
int_0^T G (used by the convolution quadrature) and the relaxation memory
Phi = -dG/dt needed for the complete-monotonicity spot checks.  For
int G the antiderivative comes from (erfcx)'(u) = 2u erfcx(u) - 2/sqrt(pi):

    int_0^V v erfcx(v) dv = (erfcx(V) - 1)/2 + V/sqrt(pi).

Time-domain functions map a scalar time to a float and an array to an ndarray,
check every element and keep each expression's scalar operation order, so an
array entry is bit-identical to the scalar call.  T^{3/2} goes through libm pow
(libm_map): numpy's SIMD pow differs from it in the last bit for ~5 % of inputs.
"""

import math

import numpy as np

from ..errors import DomainError
from ..specfun.erf import erfcx, libm_map
from ..specfun.mittag import mittag_leffler_half
from .params import Family, check_fmax, check_nu

_SQRT_PI = math.sqrt(math.pi)


def _check_time(t, ok=lambda t: t >= 0.0, need="time must be finite and >= 0"):
    """t as an array, or DomainError quoting the first element failing ok."""
    t = np.asarray(t, dtype=float)
    bad = t[~(np.isfinite(t) & ok(t))]
    if bad.size:
        raise DomainError(f"{need}, got {float(bad[0])!r}")
    return t


def _result(values):  # a float for a scalar time
    return float(values) if np.ndim(values) == 0 else values


# -- fractional Maxwell of order 1/2 ----------------------------------------


def fmax_J_time(a1: float, b1: float, t):
    check_fmax(a1, b1)
    t = _check_time(t)
    return _result((a1 / b1) * (1.0 + 2.0 * np.sqrt(t) / (a1 * _SQRT_PI)))


def fmax_G_time(a1: float, b1: float, t):
    check_fmax(a1, b1)
    t = _check_time(t)
    return _result((b1 / a1) * mittag_leffler_half(-np.sqrt(t) / a1))


def fmax_J_laplace(a1: float, b1: float, s):
    check_fmax(a1, b1)
    if s == 0:
        raise DomainError("s = 0 is outside the transform domain")
    z = s**0.5
    return (1.0 + a1 * z) / (b1 * z)


def fmax_G_laplace(a1: float, b1: float, s):
    check_fmax(a1, b1)
    if s == 0:
        raise DomainError("s = 0 is outside the transform domain")
    z = s**0.5
    return b1 * z / (1.0 + a1 * z)


def fmax_creep_integral(a1: float, b1: float, T):
    """int_0^T J_M dt = (a1/b1) (T + 4 T^{3/2} / (3 a1 sqrt(pi)))."""
    check_fmax(a1, b1)
    T = _check_time(T)
    return _result((a1 / b1) * (T + 4.0 * libm_map(pow, T, 1.5) / (3.0 * a1 * _SQRT_PI)))


def fmax_relax_integral(a1: float, b1: float, T):
    """int_0^T G_M dt = a1 b1 (erfcx(sqrt(T)/a1) - 1) + 2 b1 sqrt(T)/sqrt(pi)."""
    check_fmax(a1, b1)
    T = _check_time(T)
    root = np.sqrt(T)
    return _result(a1 * b1 * (erfcx(root / a1) - 1.0) + 2.0 * b1 * root / _SQRT_PI)


# -- asymptotic (Maxwell-like) family ----------------------------------------


def asym_J_time(nu: float, t):
    nu = check_nu(nu)
    t = _check_time(t)
    return _result(1.0 + 4.0 * (nu + 1.0) * np.sqrt(t) / _SQRT_PI)


def asym_G_time(nu: float, t):
    nu = check_nu(nu)
    t = _check_time(t)
    return _result(mittag_leffler_half(-2.0 * (nu + 1.0) * np.sqrt(t)))


def asym_J_laplace(nu: float, s):
    nu = check_nu(nu)
    if s == 0:
        raise DomainError("s = 0 is outside the transform domain")
    return 1.0 + 2.0 * (nu + 1.0) / s**0.5


def asym_G_laplace(nu: float, s):
    nu = check_nu(nu)
    if s == 0:
        raise DomainError("s = 0 is outside the transform domain")
    z = s**0.5
    return z / (2.0 * (nu + 1.0) + z)


def asym_creep_integral(nu: float, T):
    nu = check_nu(nu)
    T = _check_time(T)
    return _result(T + 8.0 * (nu + 1.0) * libm_map(pow, T, 1.5) / (3.0 * _SQRT_PI))


def asym_relax_integral(nu: float, T):
    nu = check_nu(nu)
    T = _check_time(T)
    c = 1.0 / (2.0 * (nu + 1.0))
    root = np.sqrt(T)
    return _result(c * c * (erfcx(root / c) - 1.0) + 2.0 * c * root / _SQRT_PI)


def asym_relaxation_memory(nu: float, t):
    """Phi_as(t; nu) = -dG_as/dt = lam/sqrt(pi t) - lam^2 erfcx(lam sqrt(t)).

    Completely monotonic on t > 0 (lam = 2(nu+1)); diverges like t^{-1/2}
    at the origin, so t must be strictly positive.
    """
    nu = check_nu(nu)
    t = _check_time(t, lambda t: t > 0.0, "memory function needs t > 0")
    lam = 2.0 * (nu + 1.0)
    root = np.sqrt(t)
    return _result(lam / (_SQRT_PI * root) - lam * lam * erfcx(lam * root))


# -- family records --------------------------------------------------------


ASYMPTOTIC = Family(
    sJ=lambda p, s: asym_J_laplace(p.nu, s),
    sG=lambda p, s: asym_G_laplace(p.nu, s),
    J=lambda p, ts, policy: asym_J_time(p.nu, ts),
    G=lambda p, ts, policy: asym_G_time(p.nu, ts),
    creep=lambda p, T, policy: asym_creep_integral(p.nu, T),
    relax=lambda p, T, policy: asym_relax_integral(p.nu, T),
    glass=lambda p: 1.0,
)

FMAX = Family(
    sJ=lambda p, s: fmax_J_laplace(p.a1, p.b1, s),
    sG=lambda p, s: fmax_G_laplace(p.a1, p.b1, s),
    J=lambda p, ts, policy: fmax_J_time(p.a1, p.b1, ts),
    G=lambda p, ts, policy: fmax_G_time(p.a1, p.b1, ts),
    creep=lambda p, T, policy: fmax_creep_integral(p.a1, p.b1, T),
    relax=lambda p, T, policy: fmax_relax_integral(p.a1, p.b1, T),
    glass=lambda p: p.a1 / p.b1,
)
