"""The fractional Maxwell class of order 1/2: one set of closed forms.

Every closed-form family here obeys a law sigma + a D^{1/2} sigma =
b D^{1/2} eps with Caputo derivatives and a, b > 0.  The kernels below take
the law's coefficients as the Mittag-Leffler rate lam = 1/a and the glass
compliance g = a/b:

    s Jt(s) = g (1 + lam / sqrt(s))
    s Gt(s) = sqrt(s) / (lam + sqrt(s)) / g
    J(t)    = g (1 + 2 lam sqrt(t) / sqrt(pi))
    G(t)    = E_{1/2}(-lam sqrt(t)) / g

A family is a law p -> (lam, g) (params.LAWS; ModelParams refuses a law
whose lam or g is not finite and > 0) and nothing else:

* fractional Maxwell (coefficients a1, b1 > 0): lam = 1/a1, g = a1/b1;
* asymptotic Maxwell-like (parameter nu > -1): lam = 2(nu+1), g = 1, that is
  a1 = b1 = 1/(2(nu+1)).  Its creep transform 1 + 2(nu+1)/sqrt(s) is the
  large-s behaviour of the Bessel family.

The (lam, g) form keeps the asymptotic family's bits: lam = 2(nu+1) is the
factor its own formulas carry (4(nu+1) = 2 lam, 8(nu+1) = 4 lam exactly), and
a factor g = 1.0 multiplies or divides exactly.  The fmax results move by a
few ulp, because 1/a1 and 1/(1/a1) round; at a1 = b1 = 1 they keep every bit.

Both creep rates behave like t^{-1/2} near zero, so besides the material
functions this module gives their exact primitives int_0^T J and int_0^T G
(used by the convolution quadrature) and the relaxation memory Phi = -dG/dt
needed for the complete-monotonicity spot checks.  For int G the
antiderivative comes from (erfcx)'(u) = 2u erfcx(u) - 2/sqrt(pi):

    int_0^V v erfcx(v) dv = (erfcx(V) - 1)/2 + V/sqrt(pi).

Phi's two terms agree to 1/(2x^2) of each other, x = lam sqrt(t), so Phi is
their difference only below x = PHI_CF_MIN = 1.  From there, with the tail
v = x + 1/(x + (3/2)/(x + 2/(x + ...))) of erfcx's continued fraction,
Phi = 1/(2 sqrt(pi) g t (v + 1/(2x))), squaring neither lam nor x (200 terms
of v, deepest first).  Each route is within 7e-15 of mpmath for x in [1e-3,
1e10]; the difference alone is off by up to 1.7e-12 near x = 2.

Time-domain functions map a scalar time to a float and an array to an ndarray,
check every element and keep each expression's scalar operation order, so an
array entry is bit-identical to the scalar call.  T^{3/2} is T sqrt(T), two
correctly rounded operations for an array and a scalar alike; numpy's SIMD pow
differs from libm pow in the last bit for ~5 % of inputs.
"""

import math

import numpy as np

from ..errors import DomainError, check_array, check_times
from ..specfun.erf import erfcx
from ..specfun.mittag import mittag_leffler_half
from .params import LAWS, Family, ModelParams, scalar_or_array, transform_root

_SQRT_PI = math.sqrt(math.pi)
PHI_CF_MIN = 1.0  # from this x = lam sqrt(t) on, relaxation_memory sums a continued fraction


# -- the kernels, in the law's coefficients (lam, g) -----------------------


def J_laplace(lam: float, g: float, s):
    """s Jtilde(s); generic arithmetic in s."""
    return g * (1.0 + lam / transform_root(s))


def G_laplace(lam: float, g: float, s):
    """s Gtilde(s); generic arithmetic in s."""
    z = transform_root(s)
    return z / (lam + z) / g


def J_time(lam: float, g: float, t):
    t = check_times(t)
    return scalar_or_array(g * (1.0 + 2.0 * lam * np.sqrt(t) / _SQRT_PI))


def G_time(lam: float, g: float, t):
    t = check_times(t)
    return scalar_or_array(mittag_leffler_half(-lam * np.sqrt(t)) / g)


def creep_integral(lam: float, g: float, T):
    """int_0^T J dt = g (T + 4 lam T^{3/2} / (3 sqrt(pi)))."""
    T = check_times(T)
    return scalar_or_array(g * (T + 4.0 * lam * (T * np.sqrt(T)) / (3.0 * _SQRT_PI)))


def relax_integral(lam: float, g: float, T):
    """int_0^T G dt = a b (erfcx(sqrt(T)/a) - 1) + 2 b sqrt(T)/sqrt(pi), with
    the law's a = 1/lam and b = a/g."""
    T = check_times(T)
    a = 1.0 / lam
    b = a / g
    root = np.sqrt(T)
    return scalar_or_array(a * b * (erfcx(root / a) - 1.0) + 2.0 * b * root / _SQRT_PI)


def relaxation_memory(lam: float, g: float, t):
    """Phi(t) = -dG/dt = (lam/sqrt(pi t) - lam^2 erfcx(lam sqrt(t))) / g, or from
    lam sqrt(t) = PHI_CF_MIN on its continued fraction (module doc).  Completely
    monotonic on t > 0; diverges like t^{-1/2} at the origin, so t must be > 0."""
    t = check_array(t, "memory function needs t > 0", lambda t: t > 0.0)
    root = np.sqrt(t)
    x = lam * root
    out, near = np.empty(t.shape), x < PHI_CF_MIN
    if near.any():  # a route with no times is skipped: 200 empty-array steps cost ~0.3 ms
        out[near] = (lam / (_SQRT_PI * root[near]) - lam * lam * erfcx(lam * root[near])) / g
    if not near.all():
        v = x = x[~near]
        for a in np.arange(100.5, 0.75, -0.5):  # v's 200 partial numerators, deepest first
            v = x + a / v
        out[~near] = 0.5 / (_SQRT_PI * g) / t[~near] / (v + 0.5 / x)
    return scalar_or_array(out)


# -- family records --------------------------------------------------------


def _finite(kernel, law, p, t):
    """kernel(*law(p), t); a step that overflows raises DomainError naming p and max(t)."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            values = kernel(*law(p), t)
        if np.isfinite(values).all():
            return values
    except FloatingPointError:
        pass
    raise DomainError(f"{p.label()}: {kernel.__name__} overflows at t = {float(np.max(t))!r}")


def _family(law) -> Family:
    """The record of the family whose law is p -> (lam, g)."""
    return Family(
        sJ=lambda p, s: J_laplace(*law(p), s),
        sG=lambda p, s: G_laplace(*law(p), s),
        J=lambda p, ts, policy: _finite(J_time, law, p, ts),
        G=lambda p, ts, policy: _finite(G_time, law, p, ts),
        creep=lambda p, T, policy: _finite(creep_integral, law, p, T),
        relax=lambda p, T, policy: _finite(relax_integral, law, p, T),
        glass=lambda p: law(p)[1],
    )


ASYMPTOTIC = _family(LAWS["asymptotic"])
FMAX = _family(LAWS["fmax"])


def asym_J_time(nu: float, t):
    return ASYMPTOTIC.J(ModelParams("asymptotic", nu=nu), t, None)


def asym_G_time(nu: float, t):
    return ASYMPTOTIC.G(ModelParams("asymptotic", nu=nu), t, None)
