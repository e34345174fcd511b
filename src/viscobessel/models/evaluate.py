"""Family-dispatching evaluators used by the simulator, the CLI and checks."""

from dataclasses import replace

import numpy as np

from .bessel_family import (
    bessel_creep_integral,
    bessel_creep_integral_curve,
    bessel_G_curve,
    bessel_G_laplace,
    bessel_G_short_time,
    bessel_J_curve,
    bessel_J_laplace,
    bessel_J_short_time,
    bessel_relax_integral,
    bessel_relax_integral_curve,
)
from .maxwell import (
    asym_creep_integral,
    asym_G_laplace,
    asym_G_time,
    asym_J_laplace,
    asym_J_time,
    asym_relax_integral,
    fmax_creep_integral,
    fmax_G_laplace,
    fmax_G_time,
    fmax_J_laplace,
    fmax_J_time,
    fmax_relax_integral,
)
from .params import DEFAULT_POLICY, ModelParams

# Kernel times below this go through the closed forms / Tauberian expansions
# instead of the Dirichlet series (see eval_J_any_time).
SHORT_TIME_CUTOFF = 1e-4


def laplace_sJ(params: ModelParams, s):
    """s * Jtilde(s) for any family (generic arithmetic in s)."""
    if params.family == "bessel":
        return bessel_J_laplace(params.nu, s)
    if params.family == "asymptotic":
        return asym_J_laplace(params.nu, s)
    return fmax_J_laplace(params.a1, params.b1, s)


def laplace_sG(params: ModelParams, s):
    """s * Gtilde(s) for any family (generic arithmetic in s)."""
    if params.family == "bessel":
        return bessel_G_laplace(params.nu, s)
    if params.family == "asymptotic":
        return asym_G_laplace(params.nu, s)
    return fmax_G_laplace(params.a1, params.b1, s)


def glass_compliance(params: ModelParams) -> float:
    """J(0+): 1 for bessel/asymptotic, a1/b1 for fmax."""
    if params.family == "fmax":
        return params.a1 / params.b1
    return 1.0


def glass_modulus(params: ModelParams) -> float:
    """G(0+) = 1 / J(0+)."""
    return 1.0 / glass_compliance(params)


def eval_J_curve(params: ModelParams, ts, policy=None) -> np.ndarray:
    policy = policy or DEFAULT_POLICY
    ts = np.asarray(ts, dtype=float)
    if params.family == "bessel":
        return bessel_J_curve(params.nu, ts, policy)
    if params.family == "asymptotic":
        return asym_J_time(params.nu, ts)
    return fmax_J_time(params.a1, params.b1, ts)


def eval_G_curve(params: ModelParams, ts, policy=None) -> np.ndarray:
    policy = policy or DEFAULT_POLICY
    ts = np.asarray(ts, dtype=float)
    if params.family == "bessel":
        return bessel_G_curve(params.nu, ts, policy)
    if params.family == "asymptotic":
        return asym_G_time(params.nu, ts)
    return fmax_G_time(params.a1, params.b1, ts)


def creep_integral(params: ModelParams, T: float, policy=None) -> float:
    """int_0^T J(t) dt, exact per family (no short-time floor)."""
    if params.family == "bessel":
        return bessel_creep_integral(params.nu, T, policy)
    if params.family == "asymptotic":
        return asym_creep_integral(params.nu, T)
    return fmax_creep_integral(params.a1, params.b1, T)


def relax_integral(params: ModelParams, T: float, policy=None) -> float:
    """int_0^T G(t) dt, exact per family (no short-time floor)."""
    if params.family == "bessel":
        return bessel_relax_integral(params.nu, T, policy)
    if params.family == "asymptotic":
        return asym_relax_integral(params.nu, T)
    return fmax_relax_integral(params.a1, params.b1, T)


def creep_integral_curve(params: ModelParams, ts, policy=None) -> np.ndarray:
    """int_0^T J on an array of upper bounds (any T >= 0)."""
    ts = np.asarray(ts, dtype=float)
    if params.family == "bessel":
        return bessel_creep_integral_curve(params.nu, ts, policy)
    if params.family == "asymptotic":
        return asym_creep_integral(params.nu, ts)
    return fmax_creep_integral(params.a1, params.b1, ts)


def relax_integral_curve(params: ModelParams, ts, policy=None) -> np.ndarray:
    """int_0^T G on an array of upper bounds (any T >= 0)."""
    ts = np.asarray(ts, dtype=float)
    if params.family == "bessel":
        return bessel_relax_integral_curve(params.nu, ts, policy)
    if params.family == "asymptotic":
        return asym_relax_integral(params.nu, ts)
    return fmax_relax_integral(params.a1, params.b1, ts)


def eval_J_any_time(params: ModelParams, ts, policy=None) -> np.ndarray:
    """J(t) for kernel quadratures that sample arbitrarily close to t = 0.

    Closed-form families evaluate exactly at any t >= 0.  For the Bessel
    family, times below SHORT_TIME_CUTOFF use the two-term Tauberian
    expansion (absolute error O(t^{3/2}) ~ 1e-6 at the cutoff) and the
    Dirichlet series everywhere else, with the truncation policy's floor
    lowered to the cutoff (a 200-entry table still converges there).
    """
    policy = policy or DEFAULT_POLICY
    ts = np.asarray(ts, dtype=float)
    if params.family != "bessel":
        return eval_J_curve(params, ts, policy)
    kernel_policy = replace(policy, t_floor=min(policy.t_floor, SHORT_TIME_CUTOFF))
    out = np.empty_like(ts)
    short = ts < SHORT_TIME_CUTOFF
    if short.any():
        out[short] = [bessel_J_short_time(params.nu, t) for t in ts[short]]
    if (~short).any():
        out[~short] = bessel_J_curve(params.nu, ts[~short], kernel_policy)
    return out


def eval_G_any_time(params: ModelParams, ts, policy=None) -> np.ndarray:
    """G(t) counterpart of ``eval_J_any_time``."""
    policy = policy or DEFAULT_POLICY
    ts = np.asarray(ts, dtype=float)
    if params.family != "bessel":
        return eval_G_curve(params, ts, policy)
    kernel_policy = replace(policy, t_floor=min(policy.t_floor, SHORT_TIME_CUTOFF))
    out = np.empty_like(ts)
    short = ts < SHORT_TIME_CUTOFF
    if short.any():
        out[short] = [bessel_G_short_time(params.nu, t) for t in ts[short]]
    if (~short).any():
        out[~short] = bessel_G_curve(params.nu, ts[~short], kernel_policy)
    return out
