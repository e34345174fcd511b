"""Material functions of the Bessel-type viscoelastic family.

Laplace domain (z = sqrt(s), principal branch):

    s Jt(s; nu) = 1 + (2(nu+1)/z) * I_{nu+1}(z) / I_{nu+2}(z)
    s Gt(s; nu) = 1 - (2(nu+1)/z) * I_{nu+1}(z) / I_nu(z)

Their product is identically 1 by the three-term recurrence
I_nu(z) - I_{nu+2}(z) = (2(nu+1)/z) I_{nu+1}(z).

Time domain, as absolutely convergent Dirichlet series over squared Bessel-J
zeros (j_{mu,n} denotes the n-th positive zero of J_mu):

    J(t; nu) = 2 (nu+2)/(nu+3) + 4(nu+1)(nu+2) t
               - 4(nu+1) sum_n exp(-j_{nu+2,n}^2 t) / j_{nu+2,n}^2
    G(t; nu) = 4(nu+1) sum_n exp(-j_{nu,n}^2 t) / j_{nu,n}^2

and the rate of relaxation (the complete-monotonicity check samples it)

    Phi(t) = -dG/dt = 4(nu+1) sum_n exp(-j_{nu,n}^2 t).

Truncation is per chunk of 4096 times, within the terms the smallest requested
time needs.  Past index N, with u = j_N^2, every term exp(-j_n^2 t)/j_n^(2 power)
is at most u^(1-power) exp(-u t)/j_n^2 where u t >= 1 - power, and by Rayleigh
(Watson 15.51) sum_n j^-2 = 1/(4(mu+1)): one tail bound for J, G and Phi, inf
where u t < 1 - power.  Below TruncationPolicy.t_floor the series converge too
slowly and evaluation is refused (SeriesRefusalError): short times are Laplace's.

Within that count, each contiguous block of a chunk's times also drops every
term with j_n^2 - j_1^2 > 55 ln 2 / t_min, t_min being the block's smallest
time.  At each of its times such a term d is at most 2^-55 of the first term,
times 1 plus a few ulp for their rounding.  All terms are positive, so every
partial sum S of the row is at least that first term, and half an ulp of S
exceeds 2^-54 S > d: adding d rounds back to S.  A block of two or more times
sums its rows in table order, so its result keeps every bit; numpy sums a
one-time chunk pairwise, and there the regrouping may move it by a few ulp.
The dropped terms are the expensive ones: np.exp takes its slow path for
arguments that underflow to subnormals or zero, and subnormal division is slow.

One pass over the times gives every chunk's smallest and largest time, which
the checks, the counts and the cuts read.  Every step of a tail bound falls
with t, so one scalar search counts every chunk: it visits the distinct chunk
minima from the largest down, each resuming at the index where the one before
stopped, so it reads each index once and each minimum's count once more.
The cuts come from one search in j_n^2 - j_1^2.  A chunk starts as one block,
and a block is halved while each half keeps at least 64 times and the
halves' own cuts save at least 8192 term evaluations.  So a grid k dt
from t = 0 splits its first chunk into ~7 geometric blocks and only the 64
times at t = 0 keep every term; a log grid's chunks do not split.  A block of
two or more times merges into the one before it when both keep the same terms
and together hold at most 2^17 (1 MB); its columns still add their terms in
table order, so no bit moves.  A one-term block skips the buffer.

A series reads only its first n_use zeros, so it asks the zero memo for just
the prefix its smallest time t_min needs: the search starts on N_MIN zeros and,
each time it reaches a table's end, resumes there on the next of 16, 32, 48,
... zeros (at most n_max), so it ends on the first whose tail bound falls below
tol at t_min.  At the default tol that is at most 64 zeros from t_min = 1e-3
and 16 from 0.1.  A prefix holds the first zeros of the full table bit for
bit, so every sum, count and refusal is the one over the n_max table.  The
exact primitives read the whole table.  J and the creep primitive grow like t
and t^2, and are refused with DomainError where that growth overflows at the
largest time.
"""

import math

import numpy as np

from ..errors import (DomainError, SeriesRefusalError, TableExhaustedError, check_array,
                      check_order, check_times)
from ..specfun.bessel import bessel_i_ratio
from ..specfun.erf import erfcx
from ..specfun.zeros import ZeroTable, zero_table
from .params import (DEFAULT_POLICY, N_MIN, Family, ModelParams, check_nu, scalar_or_array,
                     transform_root)

_CHUNK = 4096  # times per chunk; each chunk truncates on its own
_RUN = 2**17  # most terms (1 MB) in a block merged from blocks of equal term count
_MIN_BLOCK = 64  # fewest times in either half of a split block
_SPLIT_GAIN = 8192  # term evaluations a split must save; one block costs ~3000
_SUB_ULP = 55.0 * math.log(2.0)  # exp(-_SUB_ULP) = 2^-55: under half an ulp (module doc)


# ---------------------------------------------------------------------------
# Laplace domain
# ---------------------------------------------------------------------------


def bessel_J_laplace(nu: float, s):
    """s * Jtilde(s; nu); works for float, complex and mpmath scalars."""
    nu = check_order(nu)
    z = transform_root(s)
    return 1.0 + (2.0 * (nu + 1.0) / z) * bessel_i_ratio(nu + 1.0, nu + 2.0, z)


def bessel_G_laplace(nu: float, s):
    """s * Gtilde(s; nu); reciprocal of ``bessel_J_laplace`` by construction."""
    nu = check_order(nu)
    z = transform_root(s)
    return 1.0 - (2.0 * (nu + 1.0) / z) * bessel_i_ratio(nu + 1.0, nu, z)


# ---------------------------------------------------------------------------
# Dirichlet series machinery
# ---------------------------------------------------------------------------


def _extremes(ts) -> np.ndarray:
    """Each chunk's smallest (row 0) and largest (row 1) time: one pass."""
    starts = np.arange(0, len(ts), _CHUNK)
    return np.array((np.minimum.reduceat(ts, starts), np.maximum.reduceat(ts, starts)))


def _block_plan(sq, ts, counts=None, extremes=None) -> list:
    """(first, end, terms) blocks of ts in time order: chunk k keeps its first
    counts[k] terms (all if counts is None), and each block of it
    those that can change a bit of its row sums (module doc).  extremes are
    the _extremes of ts, taken here when the caller has none."""
    ext = _extremes(ts) if extremes is None else extremes
    gaps = sq - sq[0]

    def kept(n, t):  # of the first n terms, those that can change a bit at times >= t
        # (all at t = 0: _SUB_ULP / 1e-300 exceeds every gap); falls with t
        return min(n, int(gaps.searchsorted(_SUB_ULP / max(float(t), 1e-300), "right")))

    # every chunk's m = kept(n, lo) and, within it, its largest time's kept(n, hi)
    n = len(sq) if counts is None else counts
    cuts = gaps.searchsorted(_SUB_ULP / np.maximum(ext, 1e-300), "right")
    m, m_hi = np.minimum(n, cuts).tolist()
    plan, starts = [], list(range(0, len(ts), _CHUNK))
    for chunk in zip(starts, starts[1:] + [len(ts)], m, m_hi):
        blocks = [chunk]
        while blocks:
            a, b, m, m_hi = blocks.pop()
            mid = (a + b) // 2
            # halve where the halves' own cuts save enough; the largest time
            # bounds that saving without the two half minima (a half's m_hi
            # is None until it is needed; a count is never 0)
            m_hi = m_hi or kept(m, ts[a:b].max()) if mid - a >= _MIN_BLOCK else m
            if (m - m_hi) * (b - a) >= _SPLIT_GAIN:
                halves = [(x, y, kept(m, ts[x:y].min()), None) for x, y in ((mid, b), (a, mid))]
                if sum((m - k) * (y - x) for x, y, k, _ in halves) >= _SPLIT_GAIN:
                    blocks += halves
                    continue
            # merge into the previous block when both keep m terms; a one-time
            # block (only ever a grid's last) stays alone: numpy sums it pairwise
            if plan and plan[-1][2] == m and b - a > 1 and (b - plan[-1][0]) * m <= _RUN:
                a = plan.pop()[0]
            plan.append((a, b, m))
    return plan


@np.errstate(over="ignore")  # -j_n^2 t = -inf: a term exp(-inf) = 0
def _dirichlet_sum(squares, ts, power: int, counts=None, extremes=None) -> np.ndarray:
    """sum_n exp(-j_n^2 t) / j_n^(2 power) over the blocks of _block_plan, all
    summed in one buffer; a column adds its block's terms in table order
    wherever the block ends, so merged blocks give the same bits.  A one-term
    block is written straight into the output."""
    sq = np.asarray(squares, dtype=float)
    ts = np.asarray(ts, dtype=float).ravel()
    plan = _block_plan(sq, ts, counts, extremes)
    col = sq[:, None]
    neg, weights = -col, col if power == 1 else col**power
    buf = np.empty(max(((b - a) * m for a, b, m in plan if m > 1), default=0))
    out = np.empty(len(ts))
    for a, b, m in plan:
        terms = out[None, a:b] if m == 1 else buf[: (b - a) * m].reshape(m, b - a)
        np.multiply(neg[:m], ts[a:b], out=terms)  # (-a) b == -(a b)
        np.exp(terms, out=terms)
        terms /= weights[:m]
        if m > 1:
            np.add.reduce(terms, axis=0, out=out[a:b])
    return out


def _tail(c: float, power: int, sq, i: int, t: float) -> float:
    """Bound at t on the series tail past its first N = i + 1 terms (module
    doc): c u^(1-power) exp(-u t), u = j_N^2, where u t >= 1 - power, else inf.
    c is the series' amplitude times the Rayleigh total; J and G (power 1)
    read c exp(-u t) at every t."""
    u = sq[i]
    return c * u ** (1 - power) * math.exp(-u * t) if u * t >= 1 - power else math.inf


def _series(order, ts, policy, c, power, what):
    """(sum_n exp(-j_n^2 t) / j_n^(2 power) over the zeros of J_order on ts's
    shape, ts's largest time), or the refusal of a time that is not finite or
    lies below t_floor.  Each chunk keeps the first N >= N_MIN terms whose
    _tail(c, power, ...) at its smallest time is at most tol, searched as the
    module doc says from the largest chunk minimum down, on the first table of
    N_MIN, 16, 32, ... zeros (at most n_max) that holds them all."""
    ts = np.asarray(ts, dtype=float)
    ext = _extremes(ts.ravel())
    if not np.isfinite(ext).all():  # NaN reaches both rows
        check_array(ts, "series evaluation requires finite times")  # raises, quoting one
    lows = ext[0].tolist()
    minima = sorted(set(lows), reverse=True)
    t_min = minima[-1] if minima else math.inf
    if t_min < policy.t_floor:
        raise SeriesRefusalError(f"series evaluation refused below t_floor = {policy.t_floor!r} "
                                 f"(smallest requested t = {t_min!r})")
    n, i, counts = N_MIN, N_MIN - 1, {}
    tab = zero_table(order, n)
    for t in minima:  # a tail falls with t, so no index before i meets tol at t
        while True:
            while i < len(tab) and _tail(c, power, tab.squares, i, t) > policy.tol:
                i += 1
            if i < len(tab):
                break
            if n == policy.n_max:
                raise TableExhaustedError(f"{what}: {n} zeros cannot push the series tail "
                                          f"below tol = {policy.tol!r} at t = {t_min!r}")
            n = min(n // 16 * 16 + 16, policy.n_max)
            tab = zero_table(order, n)
        counts[t] = i + 1
    series = _dirichlet_sum(tab.square_array, ts, power, [counts[t] for t in lows], ext)
    return series.reshape(ts.shape), float(ext[1].max(initial=0.0))


def _refuse_overflow(value: float, nu: float, what: str, t: float):
    """DomainError naming the family and t unless value, the largest of what's
    growing part (reached at the largest time t), is finite."""
    if not math.isfinite(value):
        raise DomainError(f"{ModelParams('bessel', nu=nu).label()}: {what} overflows at t = {t!r}")


def bessel_J_curve(nu, ts, policy=None) -> np.ndarray:
    """Creep compliance J(t; nu) on an array of times (each >= t_floor)."""
    nu = check_nu(nu)
    coeff = (nu + 1.0) / (nu + 3.0)  # 4(nu+1) * Rayleigh tail 1/(4(nu+3))
    series, t_max = _series(nu + 2.0, ts, policy or DEFAULT_POLICY, coeff, 1, "J series")
    amp, slope = 4.0 * (nu + 1.0), 4.0 * (nu + 1.0) * (nu + 2.0)
    offset = 2.0 * (nu + 2.0) / (nu + 3.0)
    _refuse_overflow(slope * t_max + offset, nu, "J", t_max)
    flat, ts = series.reshape(-1), np.asarray(ts, dtype=float).reshape(-1)
    for k in range(0, len(flat), _CHUNK):  # (slope t + offset) - amp S, in place per chunk
        s = flat[k : k + _CHUNK]
        s *= amp
        np.subtract(slope * ts[k : k + _CHUNK] + offset, s, out=s)
    return scalar_or_array(series)


def bessel_G_curve(nu, ts, policy=None) -> np.ndarray:
    """Relaxation modulus G(t; nu) on an array of times (each >= t_floor)."""
    nu = check_nu(nu)
    # 4(nu+1) * Rayleigh tail 1/(4(nu+1)) = 1
    series = _series(nu, ts, policy or DEFAULT_POLICY, 1.0, 1, "G series")[0]
    return scalar_or_array(np.multiply(series, 4.0 * (nu + 1.0), out=series))


def bessel_J_time(nu: float, t: float, policy=None) -> float:
    """Creep compliance J(t; nu) for a single time t >= t_floor."""
    return float(bessel_J_curve(nu, [t], policy)[0])


def bessel_G_time(nu: float, t: float, policy=None) -> float:
    """Relaxation modulus G(t; nu) for a single time t >= t_floor."""
    return float(bessel_G_curve(nu, [t], policy)[0])


def memory_phi_curve(nu, ts, policy=None) -> np.ndarray:
    """Rate of relaxation Phi(t; nu) = -dG/dt on an array of times."""
    nu = check_nu(nu)
    # 4(nu+1) * Rayleigh total 1/(4(nu+1)) = 1
    series = _series(nu, ts, policy or DEFAULT_POLICY, 1.0, 0, "Phi series")[0]
    return scalar_or_array(np.multiply(series, 4.0 * (nu + 1.0), out=series))


# ---------------------------------------------------------------------------
# Exact primitives (convolution support)
# ---------------------------------------------------------------------------


def _exp_quartic_sum(tab: ZeroTable, T):
    """(sum_n exp(-j_n^2 T) / j_n^4 over every zero on T's shape, T's largest
    bound), T >= 0 (vectorized).

    The table's terms are summed like the J and G series (module doc).  The
    rest sum to R(0) = sigma_2 - (table sum) at
    T = 0, where the result is sigma_2 itself so that both primitives start
    at exactly 0, and to R(0) exp(-x^2) (1 - 2x^2 + 2 sqrt(pi) x^3 erfcx(x)),
    x = j0 sqrt(T): the integral of exp(-T j^2) / j^4 over the zeros' ~pi
    spacing past j0, with j0 = (3 pi R(0))^(-1/3) to match R(0).  Against 2e5 scipy zeros (orders
    0-5, 200-zero tables) that is within 2.3e-6 R(0), ~1e-15.  Past x^2 =
    55 ln 2 it is below 2^-55 R(0), far below the table's first term, and is
    dropped (T > 9.6e-5 for 200 zeros).
    """
    shape, T = np.shape(T), np.asarray(T, dtype=float).ravel()
    ext, sq = _extremes(T), tab.square_array
    out = _dirichlet_sum(sq, T, 2, None, ext)
    sigma2 = tab.quartic_limit()  # the whole sum; the table's is tab.quartic_partial
    r0 = sigma2 - tab.quartic_partial
    if r0 > 0.0:  # else the table holds the whole sum to rounding
        j0 = (3.0 * math.pi * r0) ** (-1.0 / 3.0)
        near = np.flatnonzero(T < _SUB_ULP / (j0 * j0))
        x = j0 * np.sqrt(T[near])
        xx = x * x
        rho = np.exp(-xx) * (1.0 - 2.0 * xx + 2.0 * math.sqrt(math.pi) * xx * x * erfcx(x))
        out[near] += r0 * rho
        out[near[x == 0.0]] = sigma2
    return out.reshape(shape), float(ext[1].max(initial=0.0))


def bessel_creep_integral_curve(nu, T, policy=None) -> np.ndarray:
    """Exact primitive int_0^T J(t; nu) dt, valid for any T >= 0 (vectorized).

    Termwise integration of the Dirichlet series is absolutely convergent in
    1/j^4, so this has no short-time floor; the constant part uses the
    second Rayleigh identity for the complete sum, and the terms past the
    table are added in closed form (``_exp_quartic_sum``), so the primitive is
    0 at T = 0 and within ~1e-14 absolute at every T >= 0.
    """
    nu = check_nu(nu)
    policy = policy or DEFAULT_POLICY
    T = check_times(T)
    tab = zero_table(nu + 2.0, policy.n_max)
    sums, t_max = _exp_quartic_sum(tab, T)

    def growth(T):  # rises with T >= 0
        return 2.0 * (nu + 2.0) / (nu + 3.0) * T + 2.0 * (nu + 1.0) * (nu + 2.0) * T * T

    _refuse_overflow(growth(t_max), nu, "creep primitive", t_max)
    amp = 4.0 * (nu + 1.0)
    return scalar_or_array(growth(T) - amp * (tab.quartic_limit() - sums))


def bessel_relax_integral_curve(nu, T, policy=None) -> np.ndarray:
    """Exact primitive int_0^T G(t; nu) dt, valid for any T >= 0 (vectorized)."""
    nu = check_nu(nu)
    policy = policy or DEFAULT_POLICY
    T = check_times(T)
    tab = zero_table(nu, policy.n_max)
    amp = 4.0 * (nu + 1.0)
    return scalar_or_array(amp * (tab.quartic_limit() - _exp_quartic_sum(tab, T)[0]))


BESSEL = Family(
    sJ=lambda p, s: bessel_J_laplace(p.nu, s),
    sG=lambda p, s: bessel_G_laplace(p.nu, s),
    J=lambda p, ts, policy: bessel_J_curve(p.nu, ts, policy),
    G=lambda p, ts, policy: bessel_G_curve(p.nu, ts, policy),
    creep=lambda p, T, policy: bessel_creep_integral_curve(p.nu, T, policy),
    relax=lambda p, T, policy: bessel_relax_integral_curve(p.nu, T, policy),
    glass=lambda p: 1.0,
)
