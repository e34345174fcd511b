"""Parameters, their validators and the material-function record of the three families.

Everything is non-dimensional: the relaxation time is 1 and the glass
compliance/modulus of the Bessel-type and asymptotic families are 1.  The
fractional Maxwell family keeps its two physical coefficients a1, b1 > 0
(glass compliance a1/b1); with a1 = b1 = 1/(2(nu+1)) it coincides exactly
with the asymptotic family of parameter nu.
"""

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ..errors import DomainError, check_order
from ..specfun.zeros import ORDER_MAX

# family -> the ModelParams fields it sets, in label order, and whether it sets nu, a1, b1
PARAMS = {"bessel": ("nu",), "fmax": ("a1", "b1"), "asymptotic": ("nu",)}
FAMILIES = tuple(PARAMS)
_SET = {f: tuple(k in names for k in ("nu", "a1", "b1")) for f, names in PARAMS.items()}
N_MIN = 8  # every Dirichlet-series truncation keeps at least this many terms
BESSEL_NU_MAX = ORDER_MAX - 2.0  # the Bessel J series reads zeros of order nu + 2


class Family(NamedTuple):
    """One family's material functions; every entry takes the ModelParams first.

    Bessel J and G refuse times below policy.t_floor, the primitives hold at
    any T >= 0 (Bessel: 0 at T = 0, within ~1e-14 absolute elsewhere);
    convolution reads only the primitive, and J or G at multiples of dt only
    for a load whose first sample is nonzero.  J, G and the primitives map a
    scalar time to a float and an array to an ndarray of its shape."""

    sJ: Callable  # (params, s): s Jtilde(s), generic arithmetic in s
    sG: Callable  # (params, s): s Gtilde(s)
    J: Callable  # (params, ts, policy): creep compliance on an array of times
    G: Callable  # (params, ts, policy): relaxation modulus
    creep: Callable  # (params, T, policy): int_0^T J on an array of bounds
    relax: Callable  # (params, T, policy): int_0^T G
    glass: Callable  # (params): the glass compliance J(0+); G(0+) is its inverse


LAWS = {  # the one law table: p -> (lam, g), lam = 1/a and g = a/b (maxwell); no Bessel law
    "asymptotic": lambda p: (2.0 * (p.nu + 1.0), 1.0),  # a1 = b1 = 1/(2(nu+1))
    "fmax": lambda p: (1.0 / p.a1, p.a1 / p.b1),
}


def scalar_or_array(values):
    """A float for a 0-d result, else the array: the shape rule of Family."""
    return float(values) if np.ndim(values) == 0 else values


def transform_root(s):
    """sqrt(s) (generic arithmetic), or DomainError unless s is finite and nonzero."""
    if s == 0 or not cmath.isfinite(complex(s)):
        raise DomainError(f"s = {s!r} is outside the transform domain (finite, nonzero)")
    return s**0.5


def check_nu(nu) -> float:
    """The Bessel family's nu: check_order(nu), and at most BESSEL_NU_MAX."""
    nu = check_order(nu)
    if nu > BESSEL_NU_MAX:
        raise DomainError(f"the Bessel family takes nu <= {BESSEL_NU_MAX:g}, got {nu!r}")
    return nu


@dataclass(frozen=True)
class ModelParams:
    """Family tag plus exactly the parameters PARAMS names for it."""

    family: str
    nu: float | None = None
    a1: float | None = None
    b1: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}; expected {FAMILIES}")
        if (self.nu is not None, self.a1 is not None, self.b1 is not None) != _SET[self.family]:
            raise DomainError(f"family {self.family!r} takes exactly "
                              f"{' and '.join(PARAMS[self.family])}")
        if self.family != "fmax":
            check = check_nu if self.family == "bessel" else check_order
            object.__setattr__(self, "nu", check(self.nu))
        elif not (0.0 < self.a1 < math.inf and 0.0 < self.b1 < math.inf):
            raise DomainError(f"a1, b1 must be finite and > 0, got {self.a1!r}, {self.b1!r}")
        lam, g = LAWS[self.family](self) if self.family in LAWS else (1.0, 1.0)  # Bessel: no law
        if not (0.0 < lam < math.inf and 0.0 < g < math.inf):
            raise DomainError(f"{self.label()}: law lam = {lam!r}, g = {g!r} must be finite and > 0")

    def label(self) -> str:
        return f"{self.family}[{';'.join(f'{k}={getattr(self, k):g}' for k in PARAMS[self.family])}]"


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls Dirichlet-series truncation for the Bessel family.

    tol is the absolute series-tail target; at most n_max terms are kept (and
    at least N_MIN); below t_floor series evaluation is refused outright.
    """

    tol: float = 1e-10
    n_max: int = 200
    t_floor: float = 1e-3

    def __post_init__(self):
        if not (0.0 < self.tol < math.inf and 0.0 < self.t_floor < math.inf):
            raise DomainError(f"tol and t_floor must be finite and > 0, "
                              f"got {self.tol!r}, {self.t_floor!r}")
        if not N_MIN <= self.n_max:
            raise DomainError(f"n_max must be >= {N_MIN}, got {self.n_max!r}")


DEFAULT_POLICY = TruncationPolicy()

