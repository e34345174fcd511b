"""Identity and consistency checks on the model families: reciprocity of the
Laplace-domain pair, glass limits through large-s evaluation (initial-value
Tauberian theorem), the short-time agreement between the Bessel family and
its asymptotic Maxwell-like companion, and the table of `verify` checks.

CHECKS holds one Check per `verify --check` name: the families --family may
name, the battery run without it, each record's tolerance and its measure.
``run_check`` gives the records `verify --check name --json` writes, all built
by ``Check.run``.  The simulators and the Talbot oracle are imported by the
two checks that use them, so that the others load neither.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ..errors import DomainError
from ..specfun import bessel_j, zero_table
from .bessel_family import bessel_J_curve, memory_phi_curve
from .evaluate import eval_G_curve, eval_J_curve, laplace_sG, laplace_sJ
from .maxwell import _finite, asym_J_time, relaxation_memory
from .params import DEFAULT_POLICY, FAMILIES, LAWS, ModelParams

# Large enough that 2(nu+1)/sqrt(s) < 1e-7 for every tested order, so the
# glass estimate lands within 1e-6 of the limit.
GLASS_S_LARGE = 1e16


def reciprocity_residual(params: ModelParams, s_values) -> float:
    """max |(s Jt)(s Gt) - 1| over the given s grid."""
    worst = 0.0
    for s in s_values:
        prod = laplace_sJ(params, s) * laplace_sG(params, s)
        worst = max(worst, abs(prod - 1.0))
    return worst


def glass_limits(params: ModelParams):
    """(J(0+), G(0+)) estimated from the transforms at s = GLASS_S_LARGE."""
    return (
        float(laplace_sJ(params, GLASS_S_LARGE)),
        float(laplace_sG(params, GLASS_S_LARGE)),
    )


@dataclass(frozen=True)
class ShortTimeAgreementReport:
    """Residuals r(t) = |J_bessel - J_as| and the Tauberian ratios r/sqrt(t).

    The families share the 1 + 4(nu+1) sqrt(t/pi) behaviour at short time, so
    r(t)/sqrt(t) must decrease as t decreases; `consistent` records whether
    the sampled grid shows that monotone trend.
    """

    nu: float
    times: tuple[float, ...]
    residuals: tuple[float, ...]
    ratios: tuple[float, ...]
    consistent: bool


def short_time_agreement(nu, t_grid, policy=None) -> ShortTimeAgreementReport:
    """Compare J(t; nu) of the Bessel family against J_as on a short-t grid."""
    ts = sorted(float(t) for t in t_grid)
    if not ts or ts[-1] > 0.5:
        raise DomainError("short-time grid must be non-empty and end at or below 0.5")
    bessel_vals = bessel_J_curve(nu, ts, policy)
    residuals = tuple(abs(bessel_vals - asym_J_time(nu, ts)).tolist())
    ratios = tuple(r / math.sqrt(t) for r, t in zip(residuals, ts))
    consistent = all(a <= b for a, b in zip(ratios, ratios[1:]))
    return ShortTimeAgreementReport(float(nu), tuple(ts), residuals, ratios, consistent)


class Check(NamedTuple):
    """One `verify` check.  Its params, like --family's, are ModelParams, or
    for a check on no one family's model, the (family label, parameter dict)
    of its records."""

    covers: tuple  # the families --family may name
    battery: tuple  # the params run without --family
    tol: dict  # record name -> tolerance, or a rule params -> tolerance
    measure: Callable  # (params, policy) -> {record name: max error}

    def run(self, params, policy) -> list:
        """The check's records on params: the one place a record is built."""
        family, values = params if isinstance(params, tuple) else (params.family, {
            k: v for k, v in vars(params).items() if k != "family" and v is not None})
        errors = self.measure(params, policy)
        tols = {k: t(params) if callable(t) else t for k, t in self.tol.items() if k in errors}
        return [{"check": k, "family": family, "params": values, "max_error": e,
                 "tolerance": tols[k], "pass": bool(e <= tols[k])} for k, e in errors.items()]


def run_check(name, params=None, policy=None) -> list:
    """The records of check `name` on params (its battery if None), as
    `verify --check name --json` writes them."""
    check = CHECKS[name]
    return [r for p in (check.battery if params is None else params)
            for r in check.run(p, policy or DEFAULT_POLICY)]


def _laplace_oracle(params, policy):
    from ..laplace import LaplaceFunction, invert_talbot

    ts = np.geomspace(max(0.05, policy.t_floor), 2.0, 20)
    worst = 0.0
    for tag, sfn, curve in (("J", laplace_sJ, eval_J_curve), ("G", laplace_sG, eval_G_curve)):
        F = LaplaceFunction(lambda s: sfn(params, s) / s, f"{tag}~")
        for t, direct in zip(ts, curve(params, ts, policy)):
            worst = max(worst, abs(invert_talbot(F, float(t), 64) - direct) / abs(direct))
    return {"laplace-oracle": worst}


def _interconversion(params, policy):
    from ..fracsim import interconversion_check

    return {"interconversion":
            interconversion_check(params, [0.1, 0.5, 1.0, 2.0], 2000, policy).max_error}


def _asymptotics(params, policy):
    rep = short_time_agreement(params[1]["nu"], [0.01, 0.02, 0.05, 0.1, 0.2], policy)
    # ratios are ordered by increasing t; r/sqrt(t) must grow with t, so
    # any drop from one grid point to the next is a violation.
    return {"asymptotics": max([0.0] + [b - a for a, b in zip(rep.ratios[1:], rep.ratios[:-1])])}


def _cm_signs(stencil, h):
    """Violation magnitude of the alternating-derivative pattern at the middle
    of five values spaced h apart; inf if a value is not finite."""
    stencil = np.asarray(stencil).tolist()
    if not all(map(math.isfinite, stencil)):
        return math.inf
    d1 = (stencil[3] - stencil[1]) / (2 * h)
    d2 = (stencil[3] - 2 * stencil[2] + stencil[1]) / h**2
    d3 = (stencil[4] - 2 * stencil[3] + 2 * stencil[1] - stencil[0]) / (2 * h**3)
    d4 = (stencil[4] - 4 * stencil[3] + 6 * stencil[2] - 4 * stencil[1] + stencil[0]) / h**4
    worst = 0.0
    for order, d in enumerate((d1, d2, d3, d4), start=1):
        signed = d * (-1.0) ** order  # CM: (-1)^k f^(k) >= 0
        if signed < 0.0:
            worst = max(worst, -signed)
    return worst


def _cm(params, policy):
    h = 0.02
    stencils = np.add.outer((0.1, 0.5, 1.0, 2.0), np.arange(-2.0, 3.0) * h)  # a row per time
    if params.family == "bessel":
        name, rows = "cm-phi", memory_phi_curve(params.nu, stencils, policy)  # one series
    else:  # one closed form, refused (DomainError) where a step overflows
        name, rows = "cm-asym-memory", _finite(relaxation_memory, LAWS[params.family], params,
                                               stencils)
    return {name: max(_cm_signs(row, h) for row in rows)}


def _zeros(params, policy):
    nu, n = params[1]["nu"], params[1]["n"]
    table = zero_table(nu, n)
    gap = table.rayleigh_limit() - table.rayleigh_partial()
    errors = {"zeros-residual": max(abs(bessel_j(nu, z)) for z in table.zeros),
              "zeros-rayleigh": gap if gap > 0.0 else math.inf}  # partial sum stays below
    spacing = max((abs((b - a) - math.pi) for a, b in zip(table.zeros[50:], table.zeros[51:])),
                  default=0.0)
    if spacing:
        errors["zeros-spacing"] = spacing
    return errors


CHECKS = {
    "reciprocity": Check(
        FAMILIES,
        tuple(ModelParams("bessel", nu=nu) for nu in (-0.8, -0.5, 0.0, 0.5, 1.0))
        + tuple(ModelParams("asymptotic", nu=nu) for nu in (-0.8, 0.0, 0.5, 1.0))
        + (ModelParams("fmax", a1=1.0, b1=1.0),),
        {"reciprocity": 1e-10},
        lambda p, _: {"reciprocity": reciprocity_residual(p, [10.0**k for k in range(-2, 5)])}),
    "interconversion": Check(
        FAMILIES,
        (ModelParams("bessel", nu=0.0), ModelParams("asymptotic", nu=0.5),
         ModelParams("fmax", a1=1.0, b1=1.0)),
        {"interconversion": lambda p: 1e-4 if p.family == "bessel" else 1e-5},
        _interconversion),
    "laplace-oracle": Check(
        FAMILIES, (ModelParams("bessel", nu=0.0),), {"laplace-oracle": 1e-6},
        _laplace_oracle),
    "asymptotics": Check(
        ("bessel", "asymptotic"),
        tuple(("bessel+asymptotic", {"nu": nu}) for nu in (-0.5, 0.0, 1.0)),
        {"asymptotics": 0.0}, _asymptotics),
    "cm": Check(
        ("bessel", "asymptotic"),
        tuple(ModelParams("bessel", nu=nu) for nu in (-0.5, 0.0))
        + tuple(ModelParams("asymptotic", nu=nu) for nu in (-0.8, 0.5)),
        {"cm-phi": 0.0, "cm-asym-memory": 0.0}, _cm),
    "zeros": Check(
        ("bessel",), (("bessel", {"nu": 0.0, "n": 200}),),
        {"zeros-residual": 1e-9, "zeros-spacing": 0.01,
         "zeros-rayleigh": lambda p: zero_table(p[1]["nu"], p[1]["n"]).rayleigh_tail_bound()},
        _zeros),
}
