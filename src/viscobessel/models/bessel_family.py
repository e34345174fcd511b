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

with the scaled memory functions (J(0+) = G(0+) = 1)

    Psi(t) = dJ/dt = 4(nu+1)(nu+2) + 4(nu+1) sum_n exp(-j_{nu+2,n}^2 t)
    Phi(t) = -dG/dt = 4(nu+1) sum_n exp(-j_{nu,n}^2 t).

Truncation is adaptive: by the Rayleigh identity sum_n j^-2 = 1/(4(mu+1)) the
neglected J/G tail past index N is below exp(-j_N^2 t)/(4(mu+1)); the memory
series use a geometric bound built from the next tabulated zero.  Below
TruncationPolicy.t_floor the series converge too slowly for the configured
table and evaluation is refused (SeriesRefusalError) -- short times belong to
the Laplace-domain route.
"""

import math

import numpy as np

from ..errors import DomainError, SeriesRefusalError, TableExhaustedError
from ..specfun.bessel import bessel_i_ratio
from ..specfun.zeros import ZeroTable, zero_table
from .params import DEFAULT_POLICY, TruncationPolicy

_SQRT_PI = math.sqrt(math.pi)
_QUARTIC_CHUNK = 4096  # columns of T per exp(-j_n^2 T) block


def _check_nu(nu: float) -> float:
    nu = float(nu)
    if not math.isfinite(nu) or nu <= -1.0:
        raise DomainError(f"nu must be > -1, got {nu!r}")
    return nu


# ---------------------------------------------------------------------------
# Laplace domain
# ---------------------------------------------------------------------------


def bessel_J_laplace(nu: float, s):
    """s * Jtilde(s; nu); works for float, complex and mpmath scalars."""
    nu = _check_nu(nu)
    if s == 0:
        raise DomainError("s = 0 is outside the transform domain")
    z = s**0.5
    return 1.0 + (2.0 * (nu + 1.0) / z) * bessel_i_ratio(nu + 1.0, nu + 2.0, z)


def bessel_G_laplace(nu: float, s):
    """s * Gtilde(s; nu); reciprocal of ``bessel_J_laplace`` by construction."""
    nu = _check_nu(nu)
    if s == 0:
        raise DomainError("s = 0 is outside the transform domain")
    z = s**0.5
    return 1.0 - (2.0 * (nu + 1.0) / z) * bessel_i_ratio(nu + 1.0, nu, z)


# ---------------------------------------------------------------------------
# Dirichlet series machinery
# ---------------------------------------------------------------------------


def _table_for(order: float, policy: TruncationPolicy, table) -> ZeroTable:
    if table is not None:
        if abs(table.order - order) > 1e-12:
            raise DomainError(
                f"zero table has order {table.order!r}, need {order!r}"
            )
        return table
    return zero_table(order, policy.n_max)


def _check_times(ts, policy: TruncationPolicy):
    ts = np.asarray(ts, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise DomainError("series evaluation requires finite times")
    if np.any(ts < policy.t_floor):
        raise SeriesRefusalError(
            f"series evaluation refused below t_floor = {policy.t_floor!r} "
            f"(smallest requested t = {ts.min()!r}); use the Laplace route"
        )
    return ts


def _truncation_index(
    squares, t_min: float, policy: TruncationPolicy, tail_coeff: float, what: str
) -> int:
    """Smallest 1-based N (>= n_min) with tail_coeff * exp(-j_N^2 t) <= tol."""
    n = len(squares)
    for idx in range(policy.n_min - 1, min(n, policy.n_max)):
        if tail_coeff * math.exp(-squares[idx] * t_min) <= policy.tol:
            return idx + 1
    raise TableExhaustedError(
        f"{what}: {min(n, policy.n_max)} zeros cannot push the series tail "
        f"below tol = {policy.tol!r} at t = {t_min!r}"
    )


def _dirichlet_sum(squares, ts, inverse_square_weight: bool) -> np.ndarray:
    """sum_n exp(-j_n^2 t) (optionally / j_n^2), vectorized over ts."""
    sq = np.asarray(squares, dtype=float)
    terms = np.exp(-np.outer(sq, ts))
    if inverse_square_weight:
        terms /= sq[:, None]
    return terms.sum(axis=0)


def bessel_J_curve(nu, ts, policy=None, *, table=None) -> np.ndarray:
    """Creep compliance J(t; nu) on an array of times (each >= t_floor)."""
    nu = _check_nu(nu)
    policy = policy or DEFAULT_POLICY
    ts = _check_times(ts, policy)
    tab = _table_for(nu + 2.0, policy, table)
    coeff = (nu + 1.0) / (nu + 3.0)  # 4(nu+1) * Rayleigh tail 1/(4(nu+3))
    n_use = _truncation_index(tab.squares, ts.min(), policy, coeff, "J series")
    series = _dirichlet_sum(tab.squares[:n_use], ts, inverse_square_weight=True)
    return (
        2.0 * (nu + 2.0) / (nu + 3.0)
        + 4.0 * (nu + 1.0) * (nu + 2.0) * ts
        - 4.0 * (nu + 1.0) * series
    )


def bessel_G_curve(nu, ts, policy=None, *, table=None) -> np.ndarray:
    """Relaxation modulus G(t; nu) on an array of times (each >= t_floor)."""
    nu = _check_nu(nu)
    policy = policy or DEFAULT_POLICY
    ts = _check_times(ts, policy)
    tab = _table_for(nu, policy, table)
    # 4(nu+1) * Rayleigh tail 1/(4(nu+1)) = 1
    n_use = _truncation_index(tab.squares, ts.min(), policy, 1.0, "G series")
    series = _dirichlet_sum(tab.squares[:n_use], ts, inverse_square_weight=True)
    return 4.0 * (nu + 1.0) * series


def bessel_J_time(nu: float, t: float, policy=None, *, table=None) -> float:
    """Creep compliance J(t; nu) for a single time t >= t_floor."""
    return float(bessel_J_curve(nu, [t], policy, table=table)[0])


def bessel_G_time(nu: float, t: float, policy=None, *, table=None) -> float:
    """Relaxation modulus G(t; nu) for a single time t >= t_floor."""
    return float(bessel_G_curve(nu, [t], policy, table=table)[0])


def _memory_series(order, nu, ts, policy, table, what) -> np.ndarray:
    """4(nu+1) sum_n exp(-j_{order,n}^2 t) with a geometric tail bound."""
    tab = _table_for(order, policy, table)
    ts = _check_times(ts, policy)
    t_min = float(ts.min())
    sq = tab.squares
    amp = 4.0 * (nu + 1.0)
    n_use = None
    for idx in range(policy.n_min - 1, min(len(sq), policy.n_max) - 1):
        # Squared-zero increments grow with n, so terms past idx+1 decay at
        # least geometrically with ratio rho.
        rho = math.exp(-(sq[idx + 1] - sq[idx]) * t_min)
        tail = amp * math.exp(-sq[idx + 1] * t_min) / (1.0 - rho)
        if tail <= policy.tol:
            n_use = idx + 1
            break
    if n_use is None:
        raise TableExhaustedError(
            f"{what}: table of {len(sq)} zeros cannot bound the memory-series "
            f"tail below tol = {policy.tol!r} at t = {t_min!r}"
        )
    return amp * _dirichlet_sum(sq[:n_use], ts, inverse_square_weight=False)


def memory_psi_curve(nu, ts, policy=None, *, table=None) -> np.ndarray:
    """Rate of creep Psi(t; nu) = dJ/dt on an array of times."""
    nu = _check_nu(nu)
    policy = policy or DEFAULT_POLICY
    base = 4.0 * (nu + 1.0) * (nu + 2.0)
    return base + _memory_series(nu + 2.0, nu, ts, policy, table, "Psi series")


def memory_phi_curve(nu, ts, policy=None, *, table=None) -> np.ndarray:
    """Rate of relaxation Phi(t; nu) = -dG/dt on an array of times."""
    nu = _check_nu(nu)
    policy = policy or DEFAULT_POLICY
    return _memory_series(nu, nu, ts, policy, table, "Phi series")


def memory_psi(nu: float, t: float, policy=None, *, table=None) -> float:
    return float(memory_psi_curve(nu, [t], policy, table=table)[0])


def memory_phi(nu: float, t: float, policy=None, *, table=None) -> float:
    return float(memory_phi_curve(nu, [t], policy, table=table)[0])


# ---------------------------------------------------------------------------
# Exact primitives and short-time expansions (convolution support)
# ---------------------------------------------------------------------------


def _rayleigh_sigma2(order: float) -> float:
    """sum_n j_{order,n}^-4 = 1 / (16 (order+1)^2 (order+2))."""
    return 1.0 / (16.0 * (order + 1.0) ** 2 * (order + 2.0))


def _exp_quartic_sum(tab: ZeroTable, T) -> np.ndarray:
    """sum_n exp(-j_n^2 T) / j_n^4 over the whole table (tail below ~2e-9).

    Vectorized over T; the tail past the table is a smooth, exponentially
    flat offset, so grid *differences* of this sum are far more accurate
    than its absolute value.
    """
    sq = np.asarray(tab.squares)
    sq4 = (sq**2)[:, None]
    T = np.asarray(T, dtype=float).ravel()
    out = np.empty(len(T))
    # Column chunks bound the temporaries; each column sums in the same order.
    for lo in range(0, len(T), _QUARTIC_CHUNK):
        chunk = T[lo : lo + _QUARTIC_CHUNK]
        out[lo : lo + len(chunk)] = np.sum(np.exp(-np.outer(sq, chunk)) / sq4, axis=0)
    return out


def _check_integral_bounds(T) -> np.ndarray:
    T = np.asarray(T, dtype=float)
    if not np.all(np.isfinite(T)) or np.any(T < 0.0):
        raise DomainError("integral bounds must be finite and >= 0")
    return T


def bessel_creep_integral_curve(nu, T, policy=None, *, table=None) -> np.ndarray:
    """Exact primitive int_0^T J(t; nu) dt, valid for any T >= 0 (vectorized).

    Termwise integration of the Dirichlet series is absolutely convergent in
    1/j^4, so this has no short-time floor; the constant part uses the
    second Rayleigh identity for the complete sum.  Absolute accuracy is
    ~2e-9 (quartic tail of a 200-entry table) or better.
    """
    nu = _check_nu(nu)
    policy = policy or DEFAULT_POLICY
    T = _check_integral_bounds(T)
    tab = _table_for(nu + 2.0, policy, table)
    amp = 4.0 * (nu + 1.0)
    return (
        2.0 * (nu + 2.0) / (nu + 3.0) * T
        + 2.0 * (nu + 1.0) * (nu + 2.0) * T * T
        - amp * _rayleigh_sigma2(nu + 2.0)
        + amp * _exp_quartic_sum(tab, T)
    )


def bessel_relax_integral_curve(nu, T, policy=None, *, table=None) -> np.ndarray:
    """Exact primitive int_0^T G(t; nu) dt, valid for any T >= 0 (vectorized)."""
    nu = _check_nu(nu)
    policy = policy or DEFAULT_POLICY
    T = _check_integral_bounds(T)
    tab = _table_for(nu, policy, table)
    amp = 4.0 * (nu + 1.0)
    return amp * (_rayleigh_sigma2(nu) - _exp_quartic_sum(tab, T))


def bessel_creep_integral(nu, T, policy=None, *, table=None) -> float:
    return float(bessel_creep_integral_curve(nu, [T], policy, table=table)[0])


def bessel_relax_integral(nu, T, policy=None, *, table=None) -> float:
    return float(bessel_relax_integral_curve(nu, [T], policy, table=table)[0])


def bessel_J_short_time(nu: float, t: float) -> float:
    """Two-term Tauberian expansion of J near t = 0 (error O(t^{3/2})).

    From s Jt ~ 1 + 2(nu+1) s^{-1/2} + (nu+1)(2nu+3) s^{-1} as s -> infinity.
    """
    nu = _check_nu(nu)
    return (
        1.0
        + 4.0 * (nu + 1.0) / _SQRT_PI * math.sqrt(t)
        + (nu + 1.0) * (2.0 * nu + 3.0) * t
    )


def bessel_G_short_time(nu: float, t: float) -> float:
    """Two-term Tauberian expansion of G near t = 0 (error O(t^{3/2}))."""
    nu = _check_nu(nu)
    return (
        1.0
        - 4.0 * (nu + 1.0) / _SQRT_PI * math.sqrt(t)
        + (nu + 1.0) * (2.0 * nu + 1.0) * t
    )
