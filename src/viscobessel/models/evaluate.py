"""Family-dispatching evaluators used by the simulator, the CLI and checks.

``FAMILY_TABLE`` holds one static ``Family`` record per family, defined next to
its formulas (``bessel_family.BESSEL``, ``maxwell.ASYMPTOTIC``, ``maxwell.FMAX``;
the last two come from one factory and differ only in their law);
each evaluator below is a one-line lookup through ``family_of``.
"""

import numpy as np

from .bessel_family import BESSEL
from .maxwell import ASYMPTOTIC, FMAX
from .params import Family, ModelParams

FAMILY_TABLE = {"bessel": BESSEL, "asymptotic": ASYMPTOTIC, "fmax": FMAX}


def family_of(params: ModelParams) -> Family:
    """The static record of the family ``params`` belongs to."""
    return FAMILY_TABLE[params.family]


def laplace_sJ(params: ModelParams, s):
    """s * Jtilde(s) for any family (generic arithmetic in s)."""
    return family_of(params).sJ(params, s)


def laplace_sG(params: ModelParams, s):
    """s * Gtilde(s) for any family (generic arithmetic in s)."""
    return family_of(params).sG(params, s)


def eval_J_curve(params: ModelParams, ts, policy=None) -> np.ndarray:
    """J(t) on an array of times (Bessel: each >= policy.t_floor)."""
    return family_of(params).J(params, ts, policy)


def eval_G_curve(params: ModelParams, ts, policy=None) -> np.ndarray:
    """G(t) on an array of times (Bessel: each >= policy.t_floor)."""
    return family_of(params).G(params, ts, policy)


def creep_integral_curve(params: ModelParams, ts, policy=None) -> np.ndarray:
    """int_0^T J on an array of upper bounds (any T >= 0)."""
    return family_of(params).creep(params, ts, policy)


def relax_integral_curve(params: ModelParams, ts, policy=None) -> np.ndarray:
    """int_0^T G on an array of upper bounds (any T >= 0)."""
    return family_of(params).relax(params, ts, policy)

