"""Positive zeros j_{nu,n} of the Bessel function J_nu, kept in memory.

Zeros are located from the McMahon asymptotic guess

    beta = (n + nu/2 - 1/4) pi,    j ~ beta - (4 nu^2 - 1) / (8 beta),

refined by Newton iteration on J_nu inside a sign-changing bracket; any Newton
step that leaves the bracket falls back to bisection.  Each zero is polished
to ~1e-12 so the tabulated values are good to well below the 1e-10 contract.

The Dirichlet series of the Bessel-family material functions consume these
tables through their squares, and the Rayleigh identity
sum_n j_{nu,n}^-2 = 1/(4(nu+1)) provides both a truncation-tail bound and an
end-to-end validation target.

Zero k depends only on (nu, k) and zero k - 1 (its bracket starts 0.05 past
it), so the first n zeros of any longer table are bit-identical to a table of
n.  The store ``_found`` keeps, per order, the zeros found so far and grows
that prefix on request: ``zero_table(nu, n)`` computes only the zeros past
the longest table of that order built before.  The store lives for the
process; nothing is written to disk.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from ..errors import DomainError, RootFindError, check_count, check_order
from .bessel import _j

# Highest order tabulated: 200-zero tables are within 1.2e-11 of scipy's up
# to order 8.2 (in steps of 0.05), and off by 0.11 at 8.25.
ORDER_MAX = 8.0


@dataclass(frozen=True)
class ZeroTable:
    """Ordered positive zeros of J_nu for one order nu > -1."""

    order: float
    zeros: tuple[float, ...]
    squares: tuple[float, ...] = field(init=False, repr=False)
    square_array: np.ndarray = field(init=False, repr=False, compare=False)  # read-only

    def __post_init__(self):
        check_order(self.order)
        if not self.zeros or not all(b > a for a, b in zip((0.0, *self.zeros), self.zeros)):
            raise DomainError("a zero table holds positive, strictly increasing zeros")
        object.__setattr__(self, "squares", tuple(z * z for z in self.zeros))
        object.__setattr__(self, "square_array", np.array(self.squares))
        self.square_array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.zeros)

    def rayleigh_partial(self) -> float:
        """Partial sum of 1/j^2; approaches 1/(4(nu+1)) from below."""
        return math.fsum(1.0 / s for s in self.squares)

    @cached_property
    def quartic_partial(self) -> float:
        """Partial sum of 1/j^4, once per table; approaches quartic_limit() from below."""
        return math.fsum((self.square_array * self.square_array) ** -1.0)

    def rayleigh_limit(self) -> float:
        return 1.0 / (4.0 * (self.order + 1.0))

    def quartic_limit(self) -> float:  # the second Rayleigh sum, sum_n j^-4
        return 1.0 / (16.0 * (self.order + 1.0) ** 2 * (self.order + 2.0))

    def rayleigh_tail_bound(self) -> float:
        """Bound 1/(pi^2 (N + c)), c = nu/2 - 3/4, on the Rayleigh tail past N =
        len(self): sum_{n>N} (n+c)^-2 <= 1/(N+c), as if j_{nu,n} >= (n + c) pi.
        That fails for the first zeros of high orders (nu = 6: n = 1; nu = 8:
        n <= 3), yet against scipy's zeros to ORDER_MAX the tail is at most 0.94
        of the bound for N <= 10 and 0.9952 for N <= 200.  For N + c <= 0
        (N = 1, nu <= -1/2) the bound is the whole sum."""
        c = 0.5 * self.order - 0.75
        if len(self) + c <= 0.0:
            return self.rayleigh_limit()
        return 1.0 / (math.pi**2 * (len(self) + c))


def _mcmahon_guess(nu: float, n: int) -> float:
    beta = (n + 0.5 * nu - 0.25) * math.pi
    return beta - (4.0 * nu * nu - 1.0) / (8.0 * beta)


def _derivative(nu: float, x: float, jx: float) -> float:
    if nu > 0.0:
        return 0.5 * (_j(nu - 1.0, x) - _j(nu + 1.0, x))
    # For nu - 1 <= -1 the symmetric form is unavailable.
    return -_j(nu + 1.0, x) + (nu / x) * jx


def _bracket(nu: float, guess: float, lo_bound: float, n: int):
    """Find [a, b] with a sign change of J_nu around the n-th zero."""
    half = 0.5
    a = max(guess - half, lo_bound)
    b = guess + half
    fa = _j(nu, a)
    fb = _j(nu, b)
    if fa == 0.0:
        return a, a, fa, fa
    if fb == 0.0:
        return b, b, fb, fb
    if fa * fb < 0.0:
        return a, b, fa, fb
    # Guess was poor (small n, order near -1): march from the previous zero.
    step = 0.05 * max(guess - lo_bound, 0.2)
    a = lo_bound
    fa = _j(nu, a)
    x = a
    for _ in range(400):
        x = x + step
        fx = _j(nu, x)
        if fa * fx < 0.0:
            return a, x, fa, fx
        a, fa = x, fx
    raise RootFindError(f"could not bracket zero {n} of J_{nu}")


def _refine(nu: float, n: int, a: float, b: float, fa: float, fb: float) -> float:
    if a == b:
        return a
    x = min(max(_mcmahon_guess(nu, n), a), b)
    for _ in range(60):
        fx = _j(nu, x)
        if fx == 0.0:
            return x
        if fa * fx < 0.0:
            b, fb = x, fx
        else:
            a, fa = x, fx
        fp = _derivative(nu, x, fx)
        newton_ok = fp != 0.0 and math.isfinite(fp)
        if newton_ok:
            x_new = x - fx / fp
            newton_ok = a < x_new < b
        if not newton_ok:
            x_new = 0.5 * (a + b)
        if abs(x_new - x) <= 2e-14 * max(1.0, abs(x_new)) + 1e-13:
            return x_new
        x = x_new
    if b - a <= 1e-11 * max(1.0, b):
        return 0.5 * (a + b)
    raise RootFindError(f"zero {n} of J_{nu} did not converge (bracket [{a}, {b}])")


def _extend(nu: float, zeros: list, n_max: int) -> list:
    """Append zeros len(zeros) + 1 to n_max of J_nu to zeros, its first ones."""
    lo_bound = zeros[-1] + 0.05 if zeros else 1e-9
    for n in range(len(zeros) + 1, n_max + 1):
        guess = _mcmahon_guess(nu, n)
        a, b, fa, fb = _bracket(nu, guess, lo_bound, n)
        root = _refine(nu, n, a, b, fa, fb)
        zeros.append(root)
        lo_bound = root + 0.05
    return zeros


def bessel_j_zeros(nu: float, n_max: int) -> ZeroTable:
    """First n_max positive zeros of J_nu, each accurate to better than 1e-10."""
    return zero_table(nu, n_max)


# order -> the zeros of J_order found so far in this store, in order
_found: dict = {}


@lru_cache(maxsize=None, typed=True)  # typed: n_max = 200.0 is refused, not a hit on 200
def zero_table(nu: float, n_max: int) -> ZeroTable:
    """The first n_max zeros, grown from (and into) the order's prefix in _found."""
    nu = check_order(nu)
    if nu > ORDER_MAX:
        raise DomainError(f"zero tables stop at order {ORDER_MAX:g}, got {nu!r}")
    n_max = check_count(n_max, 1, "n_max")
    zeros = _extend(nu, _found.setdefault(nu, []), n_max)
    return ZeroTable(order=nu, zeros=tuple(zeros[:n_max]))
