"""Independent oracles for derived expected values.

Everything here is deliberately written from first principles (ascending
series, bisection, quadrature, stdlib gamma, per-step loops) so the tests
never validate the package against its own code paths.
"""

import bisect
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import jn_zeros, jv

from viscobessel.errors import DomainError
from viscobessel.models import bessel_family
from viscobessel.models.bessel_family import _CHUNK
from viscobessel.models.evaluate import (
    creep_integral_curve,
    eval_G_curve,
    eval_J_curve,
    family_of,
    relax_integral_curve,
)
from viscobessel.models.params import DEFAULT_POLICY, N_MIN
from viscobessel.specfun.erf import ERFCX_CF_MIN
from viscobessel.specfun.gamma import gamma_fn
from viscobessel.specfun.zeros import zero_table


def bessel_j_series(nu: float, x: float, n_terms: int = 120) -> float:
    """Plain ascending series for J_nu(x); adequate for x up to ~25."""
    total = 0.0
    term = (0.5 * x) ** nu / math.gamma(nu + 1.0)
    for k in range(n_terms):
        total += term
        term *= -(0.25 * x * x) / ((k + 1.0) * (nu + k + 1.0))
    return total


def _j_ascending_series_reference(nu, x, signed):
    """sum_k s^k (x/2)^(nu+2k) / (k! Gamma(nu+k+1)), s = -1 (J) or +1 (I)."""
    q = 0.25 * x * x
    term = (0.5 * x) ** nu / gamma_fn(nu + 1.0)
    total = term
    sign = -1.0 if signed else 1.0
    for k in range(400):
        term *= sign * q / ((k + 1.0) * (nu + k + 1.0))
        total += term
        if abs(term) < 1e-18 * (abs(total) + 1e-300) and k >= 3:
            return total
    return total


def _hankel_pq_reference(nu, x):
    """P and Q sums of Hankel's expansion, truncated at the smallest term."""
    mu = 4.0 * nu * nu
    p = 1.0
    q = 0.0
    term = 1.0
    prev = math.inf
    for m in range(1, 60):
        term *= (mu - (2 * m - 1) ** 2) / (8.0 * m * x)
        if abs(term) >= prev or abs(term) < 1e-18:
            break
        prev = abs(term)
        # a_m/x^m enters P for even m, Q for odd m, with alternating signs
        # (-1)^(m//2) in each sub-series.
        if m % 2 == 0:
            p += term if m % 4 == 0 else -term
        else:
            q += term if m % 4 == 1 else -term
    return p, q


def bessel_j_reference(nu: float, x: float) -> float:
    """Scalar J_nu(x): ascending series up to x = 14, Hankel's expansion
    above (the package's scalar code before its Hankel loop ran on
    precomputed step constants, kept as the bit-identity reference)."""
    nu = float(nu)
    if not math.isfinite(nu) or nu <= -1.0:
        raise DomainError(f"order must satisfy nu > -1, got {nu!r}")
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"bessel_j requires finite x >= 0, got {x!r}")
    if x == 0.0:
        if nu == 0.0:
            return 1.0
        if nu > 0.0:
            return 0.0
        raise DomainError(f"J_nu(0) diverges for nu < 0 (nu = {nu!r})")
    if x <= 14.0:
        return _j_ascending_series_reference(nu, x, signed=True)
    p, q = _hankel_pq_reference(nu, x)
    w = x - (0.5 * nu + 0.25) * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(w) - q * math.sin(w))


def bisect_bessel_zero(nu: float, lo: float, hi: float, tol: float = 1e-13) -> float:
    """Bisection on the ascending series; [lo, hi] must bracket one zero."""
    flo = bessel_j_series(nu, lo)
    fhi = bessel_j_series(nu, hi)
    assert flo * fhi < 0.0, f"no sign change on [{lo}, {hi}]"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = bessel_j_series(nu, mid)
        if flo * fmid <= 0.0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=None)
def scipy_bessel_zeros(order: float, count: int) -> tuple:
    """First count positive zeros of J_order: sign changes of scipy's jv on a
    0.05 grid, each polished by brentq."""
    x = np.arange(1e-3, (count + 0.5 * order + 2.0) * math.pi, 0.05)
    f = jv(order, x)
    at = np.flatnonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0)[:count]
    assert len(at) == count, f"found only {len(at)} zeros of J_{order}"
    return tuple(brentq(lambda z: jv(order, z), x[i], x[i + 1], xtol=1e-15, rtol=1e-15)
                 for i in at)


def scipy_series(fn: str, nu: float, ts, count: int = 1000) -> np.ndarray:
    """The Bessel family's J, G or Phi on a count-term series over scipy_bessel_zeros."""
    ts = np.asarray(ts, dtype=float)
    sq = np.array(scipy_bessel_zeros(nu + 2.0 if fn == "J" else nu, count)) ** 2
    series = (np.exp(-np.outer(ts, sq)) / (1.0 if fn == "Phi" else sq)).sum(axis=1)
    if fn in ("G", "Phi"):
        return 4 * (nu + 1) * series
    return 2 * (nu + 2) / (nu + 3) + 4 * (nu + 1) * (nu + 2) * ts - 4 * (nu + 1) * series


def erfc_quadrature(x: float) -> float:
    """erfc(x) = (2/sqrt(pi)) * integral of exp(-u^2) over the tail.

    The truncated tail beyond x + 9 is below exp(-81), far under the
    quadrature's own error estimate.
    """
    value, err = quad(
        lambda u: math.exp(-u * u), x, x + 9.0, limit=200, epsabs=1e-14, epsrel=1e-13
    )
    assert err < 5e-13
    return 2.0 / math.sqrt(math.pi) * value


_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_SQRT_PI = math.sqrt(math.pi)
_LENTZ_TINY = 1e-300


def _erf_scaled_series(x: float) -> float:
    """exp(x^2) * erf(x) via the positive-term series, for 0 <= x <= 2."""
    term = x
    total = x
    two_x2 = 2.0 * x * x
    n = 0
    while True:
        n += 1
        term *= two_x2 / (2 * n + 1)
        total += term
        if term < 1e-17 * total or n > 200:
            return _TWO_OVER_SQRT_PI * total


def _erfcx_cf(x: float) -> float:
    """Laplace continued fraction for erfcx, x > 0 (accurate for x >= ~1.5)."""
    f = _LENTZ_TINY
    c = f
    d = 0.0
    j = 0
    while j < 400:
        j += 1
        a = 1.0 if j == 1 else 0.5 * (j - 1)
        d = x + a * d
        if d == 0.0:
            d = _LENTZ_TINY
        c = x + a / c
        if c == 0.0:
            c = _LENTZ_TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            return f / _SQRT_PI
    return f / _SQRT_PI


def erfcx_reference(x: float) -> float:
    """Scalar erfcx: series up to ERFCX_CF_MIN, Lentz continued fraction
    above, reflection below 0 (the package's scalar code before it took
    arrays, kept as the bit-identity reference for the masked loops)."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"erfcx requires finite x, got {x!r}")
    if x < 0.0:
        return 2.0 * math.exp(x * x) - erfcx_reference(-x)
    if x <= ERFCX_CF_MIN:
        return math.exp(x * x) - _erf_scaled_series(x)
    return _erfcx_cf(x)


def closed_form_reference(fn: str, params, ts) -> np.ndarray:
    """Closed-form J, G, int_0^T J ("creep") or int_0^T G ("relax") as a
    per-point loop over the scalar expressions, with erfcx_reference."""
    if params.family == "asymptotic":
        nu = params.nu
        c = 1.0 / (2.0 * (nu + 1.0))
        one = {
            "J": lambda t: 1.0 + 4.0 * (nu + 1.0) * math.sqrt(t) / _SQRT_PI,
            "G": lambda t: erfcx_reference(-(-2.0 * (nu + 1.0) * math.sqrt(t))),
            "creep": lambda T: T + 8.0 * (nu + 1.0) * (T * math.sqrt(T)) / (3.0 * _SQRT_PI),
            "relax": lambda T: c * c * (erfcx_reference(math.sqrt(T) / c) - 1.0)
            + 2.0 * c * math.sqrt(T) / _SQRT_PI,
        }[fn]
    else:
        a1, b1 = params.a1, params.b1
        one = {
            "J": lambda t: (a1 / b1) * (1.0 + 2.0 * math.sqrt(t) / (a1 * _SQRT_PI)),
            "G": lambda t: (b1 / a1) * erfcx_reference(-(-math.sqrt(t) / a1)),
            "creep": lambda T: (a1 / b1)
            * (T + 4.0 * (T * math.sqrt(T)) / (3.0 * a1 * _SQRT_PI)),
            "relax": lambda T: a1 * b1 * (erfcx_reference(math.sqrt(T) / a1) - 1.0)
            + 2.0 * b1 * math.sqrt(T) / _SQRT_PI,
        }[fn]
    return np.array([one(float(t)) for t in np.asarray(ts, dtype=float)])


def bessel_J_two_term(nu: float, t: float) -> float:
    """Two-term Tauberian expansion of the Bessel creep compliance near t = 0,
    from s Jt ~ 1 + 2(nu+1) s^{-1/2} + (nu+1)(2nu+3) s^{-1}; error O(t^{3/2})."""
    return 1.0 + 4.0 * (nu + 1.0) / _SQRT_PI * math.sqrt(t) + (nu + 1.0) * (2.0 * nu + 3.0) * t


def bessel_G_two_term(nu: float, t: float) -> float:
    """Two-term Tauberian expansion of the Bessel relaxation modulus near t = 0;
    error O(t^{3/2})."""
    return 1.0 - 4.0 * (nu + 1.0) / _SQRT_PI * math.sqrt(t) + (nu + 1.0) * (2.0 * nu + 1.0) * t


def mittag_leffler_series_oracle(alpha: float, z: float, n_terms: int) -> float:
    """Truncated E_alpha(z) Taylor sum via the stdlib gamma."""
    return math.fsum(z**n / math.gamma(alpha * n + 1.0) for n in range(n_terms))


# pi to 36 digits, parsed straight into the extended type
_PI_DIGITS = "3.14159265358979323846264338327950288"


def stepping_reference(
    a: float, b: float, kind: str, dt: float, samples, dtype=float
) -> np.ndarray:
    """Per-step forward substitution of the L1 Caputo-1/2 constitutive law.

    sigma + a D^{1/2} sigma = b D^{1/2} eps (the asymptotic family has
    a = b = 1/(2(nu+1))); each step sums the whole response history with one
    O(k) dot product, so the cost is O(n^2).  ``kind`` names the input
    variable; the response starts at the glass value f_0 a/b (stress input)
    or f_0 / (a/b) (strain input).  With ``dtype=np.longdouble`` every
    operation runs in extended precision, Gamma(3/2) = sqrt(pi)/2 from pi
    parsed to that precision; a, b, dt and the samples enter exactly.
    """
    f = np.asarray(samples, dtype=float).astype(dtype)
    a, b, dt = (dtype(v) for v in (a, b, dt))
    n = len(f)
    j = np.arange(n, dtype=dtype)
    w = 1 / (np.sqrt(j + 1) + np.sqrt(j))  # sqrt(j + 1) - sqrt(j), without cancelling
    gamma_3_2 = math.gamma(1.5) if dtype is float else np.sqrt(dtype(_PI_DIGITS)) / 2
    root_kappa = np.sqrt(dt) * gamma_3_2
    kappa = 1 / root_kappa
    load_caputo = np.zeros(n, dtype=dtype)
    load_caputo[1:] = np.convolve(np.diff(f), w)[: n - 1] / root_kappa
    out = np.zeros(n, dtype=dtype)
    out[0] = f[0] / (a / b) if kind == "strain" else (a / b) * f[0]
    for k in range(1, n):
        inc = np.diff(out[:k])
        hist = np.dot(w[1:k], inc[::-1]) if k > 1 else 0
        if kind == "strain":
            out[k] = (b * load_caputo[k] + a * kappa * (w[0] * out[k - 1] - hist)) / (
                1 + a * kappa * w[0]
            )
        else:
            out[k] = out[k - 1] + (f[k] / b + (a / b) * load_caputo[k]) / kappa - hist
    return out


def convolution_reference(params, kind: str, dt: float, samples) -> np.ndarray:
    """Per-step product-trapezoid hereditary integral, O(n^2).

    The kernel samples and primitives come from the package's public
    material-function curves; only the summation is independent of it.
    """
    f = np.asarray(samples, dtype=float)
    n = len(f)
    grid = dt * np.arange(n)
    if kind == "stress":
        glass = family_of(params).glass(params)
        kernel = eval_J_curve(params, grid[1:])
        primitive = creep_integral_curve(params, grid)
    else:
        glass = 1.0 / family_of(params).glass(params)
        kernel = eval_G_curve(params, grid[1:])
        primitive = relax_integral_curve(params, grid)
    kernel = np.concatenate(([glass], kernel))
    m1_over_h = kernel[1:] - np.diff(primitive) / dt
    coeff_near = np.diff(kernel) - m1_over_h
    coeff_far = m1_over_h
    out = np.zeros(n)
    out[0] = glass * f[0]
    for k in range(1, n):
        acc = float(np.dot(f[1 : k + 1][::-1], coeff_near[:k]))
        acc += float(np.dot(f[0:k][::-1], coeff_far[:k]))
        out[k] = glass * f[k] + acc
    return out


def _bessel_modes(order: int, n_zeros: int):
    """lam_n = j_{order,n}^2 from scipy's zeros (integer orders only), and the
    rest of the Rayleigh sum sigma_2 = sum lam^-2 = 1/(16 (order+1)^2 (order+2))."""
    lam = jn_zeros(order, n_zeros) ** 2
    sigma2 = 1.0 / (16.0 * (order + 1.0) ** 2 * (order + 2.0))
    return lam, sigma2 - math.fsum(lam**-2.0)


def bessel_sine_strain_response(order: int, omega: float, ts, n_zeros: int = 2000) -> np.ndarray:
    """Exact Bessel-family stress under the strain eps(t) = sin(omega t).

    With nu = order, G = 4(nu+1) sum_n exp(-lam_n t)/lam_n, and each mode of
    sigma = int_0^t G(t - tau) eps'(tau) dtau is omega (lam cos(omega t) +
    omega sin(omega t) - lam exp(-lam t)) / (lam (lam^2 + omega^2)).  Past the
    last zero the modes are quasi-static, omega cos(omega t) / lam^2 up to
    O(lam^-3), and sum to omega cos(omega t) times the rest of sigma_2.
    """
    lam, tail = _bessel_modes(order, n_zeros)
    weight = omega / (lam * (lam * lam + omega * omega))
    out = []
    for t in np.asarray(ts, dtype=float).tolist():
        c, s = math.cos(omega * t), math.sin(omega * t)
        modes = weight * (lam * c + omega * s - lam * np.exp(-lam * t))
        out.append(4.0 * (order + 1.0) * (math.fsum(modes) + omega * c * tail))
    return np.array(out)


def bessel_primitive(nu: int, kind: str, ts, n_zeros: int = 2000) -> np.ndarray:
    """int_0^T J (kind "stress") or int_0^T G ("strain") of the Bessel family.

    Each mode of either series integrates to (1 - exp(-lam T)) / lam^2; past
    the last zero, lam T >= 40 leaves exp(-lam T) below 5e-18, and those modes
    sum to the rest of sigma_2.  Bounds T with lam_max T < 40 are refused.
    """
    lam, tail = _bessel_modes(nu + 2 if kind == "stress" else nu, n_zeros)
    out = []
    for T in np.asarray(ts, dtype=float).tolist():
        if 0.0 < T < 40.0 / lam[-1]:
            raise ValueError(f"{n_zeros} zeros do not reach the quasi-static tail at T = {T!r}")
        series = 4.0 * (nu + 1.0) * (math.fsum(-np.expm1(-lam * T) / lam**2) + tail) if T else 0.0
        if kind == "stress":
            series = 2.0 * (nu + 2.0) / (nu + 3.0) * T + 2.0 * (nu + 1.0) * (nu + 2.0) * T * T - series
        out.append(series)
    return np.array(out)


def dirichlet_sum_uncut(squares, ts, power: int, counts=None, extremes=None) -> np.ndarray:
    """The series kernel before terms below half an ulp were dropped.

    Kept verbatim (chunk size included) so the cut kernel can be checked
    against it bit for bit; it sums every term the truncation rule keeps.
    It takes the package kernel's arguments: chunk k keeps its first
    counts[k] terms (all if counts is None); ``extremes``, the chunk extremes
    that the package's checks pass on to its block plan, is not needed here.
    """
    sq = np.asarray(squares, dtype=float)
    ts = np.asarray(ts, dtype=float).ravel()
    out = np.empty(len(ts))
    for lo in range(0, len(ts), _CHUNK):
        chunk = ts[lo : lo + _CHUNK]
        n = len(sq) if counts is None else counts[lo // _CHUNK]
        terms = np.outer(-sq[:n], chunk)  # in place from here; (-a) b == -(a b)
        np.exp(terms, out=terms)
        terms /= sq[:n, None] ** power
        out[lo : lo + len(chunk)] = terms.sum(axis=0)
    return out


SUB_ULP_CUT_BEFORE = 60.0 * math.log(2.0)  # the cut before its half-ulp proof: 2^-60


def block_plan_reference(sq, ts, n_for=None, sub_ulp=SUB_ULP_CUT_BEFORE) -> list:
    """The Dirichlet-series block plan as it was made chunk by chunk in Python.

    Kept verbatim, with the sub-ulp cut constant as a parameter: each chunk
    calls n_for(chunk minimum) and ts[a:b].max(), and its blocks are halved
    and merged one by one.  The package plans the same blocks from arrays.
    """
    _RUN, _MIN_BLOCK = bessel_family._RUN, bessel_family._MIN_BLOCK
    _SPLIT_GAIN, _SUB_ULP = bessel_family._SPLIT_GAIN, sub_ulp
    gaps = (sq - sq[0]).tolist()

    def kept(n, t):  # of the first n terms, those that can change a bit at times >= t
        if t <= 0.0:  # at t = 0 every term counts
            return n
        return min(n, bisect.bisect_right(gaps, _SUB_ULP / float(t)))

    starts = range(0, len(ts), _CHUNK)
    plan = []
    for lo, t_min in zip(starts, np.minimum.reduceat(ts, starts).tolist()):
        n = len(sq) if n_for is None else n_for(t_min)
        blocks = [(lo, min(lo + _CHUNK, len(ts)), t_min)]
        while blocks:
            a, b, t_min = blocks.pop()
            m = kept(n, t_min)
            mid = (a + b) // 2
            # halve where the halves' own cuts save enough; the largest time
            # bounds that saving without the two half minima
            if mid - a >= _MIN_BLOCK and (m - kept(m, ts[a:b].max())) * (b - a) >= _SPLIT_GAIN:
                halves = [(mid, b, ts[mid:b].min()), (a, mid, ts[a:mid].min())]
                if sum((m - kept(m, t)) * (y - x) for x, y, t in halves) >= _SPLIT_GAIN:
                    blocks += halves
                    continue
            # merge into the previous block when both keep m terms; a one-time
            # block (only ever a grid's last) stays alone: numpy sums it pairwise
            if plan and plan[-1][2] == m and b - a > 1 and (b - plan[-1][0]) * m <= _RUN:
                a = plan.pop()[0]
            plan.append((a, b, m))
    return plan


def series_plan_reference(fn: str, nu: float, ts, sub_ulp=SUB_ULP_CUT_BEFORE,
                          policy=DEFAULT_POLICY) -> list:
    """``block_plan_reference`` of a Bessel series on ts, with its term counts
    taken chunk by chunk, each by its own search.

    fn is "J", "G" or "Phi", or "creep"/"relax" for the primitives'
    whole-table quartic sums.  J, G and Phi keep the first N in [N_MIN,
    n_use] whose tail bound at the chunk's smallest time is at most tol
    (``truncation_reference``), n_use being that count at the smallest time
    of all.
    """
    ts = np.asarray(ts, dtype=float).ravel()
    sq = zero_table(nu + 2.0 if fn in ("J", "creep") else nu, policy.n_max).squares
    if fn in ("creep", "relax"):
        return block_plan_reference(np.asarray(sq), ts, None, sub_ulp)
    t_min = float(ts.min())
    n_use = truncation_reference(fn, nu, t_min, policy)
    return block_plan_reference(np.asarray(sq[:n_use]), ts, lambda t: n_use if t == t_min else (
        truncation_reference(fn, nu, t, policy, n_use)), sub_ulp)


def truncation_reference(fn: str, nu: float, t: float, policy=DEFAULT_POLICY, n=None):
    """The first N in [N_MIN, n] whose tail bound at t is at most tol, else None.

    fn is "J", "G" or "Phi", with the tail bound of ``series_tail_bound``
    (J with the package's coefficient (nu+1)/(nu+3)) on the n_max table; n
    defaults to the whole table.  Each index is tried on its own, at t alone.
    """
    sq = zero_table(nu + 2.0 if fn == "J" else nu, policy.n_max).squares
    c = (nu + 1.0) / (nu + 3.0) if fn == "J" else 1.0
    n = min(len(sq), policy.n_max) if n is None else n
    return next((i + 1 for i in range(N_MIN - 1, n)
                 if series_tail_bound(fn, c, sq[i], t) <= policy.tol), None)


def series_tail_bound(fn: str, c: float, u: float, t: float) -> float:
    """Bound at t on a series' tail past the term of j_N^2 = u.

    J and G: the Rayleigh bound c exp(-u t), since sum_n j^-2 = 1/(4(mu+1)).
    Phi: each later term exp(-j^2 t) = j^2 exp(-j^2 t) / j^2 is at most
    u exp(-u t) / j^2 once u t >= 1, where x exp(-x t) falls, so c u exp(-u t)
    there and inf below it.
    """
    if fn != "Phi":
        return c * math.exp(-u * t)
    return c * u * math.exp(-u * t) if u * t >= 1.0 else math.inf


def planned_dirichlet_sum(squares, ts, power: int, plan) -> np.ndarray:
    """sum_n exp(-j_n^2 t) / j_n^(2 power) over the blocks of a plan, each
    block's (terms x times) array reduced over its terms, as the series kernel
    summed before its one-term blocks skipped the buffer."""
    sq = np.asarray(squares, dtype=float)
    ts = np.asarray(ts, dtype=float).ravel()
    neg, weights = -sq[:, None], sq[:, None] ** power
    out = np.empty(len(ts))
    for a, b, m in plan:
        terms = np.multiply(neg[:m], ts[a:b])
        np.exp(terms, out=terms)
        terms /= weights[:m]
        np.add.reduce(terms, axis=0, out=out[a:b])
    return out


def dirichlet_reference(fn: str, nu: float, ts, policy=DEFAULT_POLICY) -> np.ndarray:
    """Bessel-family J, G or Phi as one n_use x n_t outer product.

    n_use is chosen once, for the smallest time: the first N whose tail bound
    (``series_tail_bound``, amplitude 4(nu+1) times the Rayleigh total
    1/(4(order+1))) is below tol.  Memory grows as n_use x n_t; the zero
    squares come from the package's table.
    """
    ts = np.asarray(ts, dtype=float)
    order = nu + 2.0 if fn == "J" else nu
    sq = zero_table(order, policy.n_max).squares
    t_min = float(ts.min())
    amp = 4.0 * (nu + 1.0)
    coeff = amp / (4.0 * (order + 1.0))
    tails = [series_tail_bound(fn, coeff, s, t_min) for s in sq]
    n_use = next(
        i + 1 for i in range(N_MIN - 1, len(tails)) if tails[i] <= policy.tol
    )
    squares = np.asarray(sq[:n_use])
    terms = np.exp(-np.outer(squares, ts))
    if fn in ("J", "G"):
        terms /= squares[:, None]
    series = terms.sum(axis=0)
    if fn == "J":
        return 2.0 * (nu + 2.0) / (nu + 3.0) + amp * (nu + 2.0) * ts - amp * series
    return amp * series


@lru_cache(maxsize=None)
def stehfest_weights(N: int) -> tuple[float, ...]:
    """Salzer summation weights V_1..V_N, exact rational arithmetic inside."""
    if N % 2 != 0 or N < 2:
        raise DomainError(f"Stehfest weights need even N >= 2, got {N!r}")
    half = N // 2
    fact = math.factorial
    weights = []
    for k in range(1, N + 1):
        acc = Fraction(0)
        for i in range((k + 1) // 2, min(k, half) + 1):
            num = Fraction(i**half) * fact(2 * i)
            den = fact(half - i) * fact(i) * fact(i - 1) * fact(k - i) * fact(2 * i - k)
            acc += num / den
        weights.append(float((-1) ** (k + half) * acc))
    return tuple(weights)


def invert_stehfest(F, t: float, N: int = 14) -> float:
    """Gaver-Stehfest inversion from real-axis samples, N even in [8, 18]:

        f(t) ~ (ln 2 / t) * sum_{k=1..N} V_k F(k ln 2 / t)

    (Stehfest (1970), CACM 13(1)).  A real-axis sampler with no contour in
    common with the Talbot rule, so the two cross-check each other.  In
    double precision it is useful to ~1e-5 relative on smooth, O(1) targets.
    The default N = 14 balances truncation against the weight-cancellation
    roundoff floor (the N = 16/18 weights reach ~1e8 and push that floor near
    1e-7); the alternating sum is compensated with fsum.
    """
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError(f"invert_stehfest requires t > 0, got {t!r}")
    if N % 2 != 0 or not 8 <= N <= 18:
        raise DomainError(f"invert_stehfest requires even N in [8, 18], got {N!r}")
    ln2_t = math.log(2.0) / t
    weights = stehfest_weights(N)
    total = math.fsum(v * F(k * ln2_t) for k, v in enumerate(weights, start=1))
    return ln2_t * total
