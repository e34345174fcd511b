"""Parameters, their validators and the material-function record of the three families.

Everything is non-dimensional: the relaxation time is 1 and the glass
compliance/modulus of the Bessel-type and asymptotic families are 1.  The
fractional Maxwell family keeps its two physical coefficients a1, b1 > 0
(glass compliance a1/b1); with a1 = b1 = 1/(2(nu+1)) it coincides exactly
with the asymptotic family of parameter nu.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ..errors import DomainError
from ..specfun.zeros import ORDER_MAX

FAMILIES = ("bessel", "fmax", "asymptotic")
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
    law: Callable | None  # (params): (lam, g) of sigma + a D^{1/2} sigma = b D^{1/2} eps,
    # lam = 1/a and g = a/b (see maxwell); None for a family with no such law


def scalar_or_array(values):
    """A float for a 0-d result, else the array: the shape rule of Family."""
    return float(values) if np.ndim(values) == 0 else values


def check_nu(nu, bessel=False) -> float:
    """nu as a float, or DomainError unless it is finite and > -1, and for the
    Bessel family at most BESSEL_NU_MAX."""
    nu = float(nu)
    if not math.isfinite(nu) or nu <= -1.0:
        raise DomainError(f"nu must be > -1, got {nu!r}")
    if bessel and nu > BESSEL_NU_MAX:
        raise DomainError(f"the Bessel family takes nu <= {BESSEL_NU_MAX:g}, got {nu!r}")
    return nu


def check_fmax(a1, b1):
    """DomainError unless both fractional Maxwell coefficients are finite and > 0."""
    if not (a1 > 0.0 and math.isfinite(a1) and b1 > 0.0 and math.isfinite(b1)):
        raise DomainError(f"a1, b1 must be finite and > 0, got {a1!r}, {b1!r}")


@dataclass(frozen=True)
class ModelParams:
    """Family tag plus its parameters: nu for bessel/asymptotic, a1,b1 for fmax."""

    family: str
    nu: float | None = None
    a1: float | None = None
    b1: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}; expected {FAMILIES}")
        if self.family in ("bessel", "asymptotic"):
            if self.nu is None or self.a1 is not None or self.b1 is not None:
                raise DomainError(f"family {self.family!r} takes exactly nu")
            object.__setattr__(self, "nu", check_nu(self.nu, self.family == "bessel"))
        else:
            if self.a1 is None or self.b1 is None or self.nu is not None:
                raise DomainError("family 'fmax' takes exactly a1 and b1")
            check_fmax(self.a1, self.b1)

    def label(self) -> str:
        if self.family == "fmax":
            return f"fmax[a1={self.a1:g};b1={self.b1:g}]"
        return f"{self.family}[nu={self.nu:g}]"


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
        if not (self.tol > 0.0):
            raise DomainError(f"tol must be positive, got {self.tol!r}")
        if not N_MIN <= self.n_max:
            raise DomainError(f"n_max must be >= {N_MIN}, got {self.n_max!r}")
        if not (self.t_floor > 0.0):
            raise DomainError(f"t_floor must be positive, got {self.t_floor!r}")


DEFAULT_POLICY = TruncationPolicy()

