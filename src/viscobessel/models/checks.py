"""Identity and consistency checks on the model families.

These back the `verify` CLI subcommand and the invariant tests: reciprocity
of the Laplace-domain pair, glass limits through large-s evaluation
(initial-value Tauberian theorem), and the short-time agreement between the
Bessel family and its asymptotic Maxwell-like companion.
"""

import math
from dataclasses import dataclass

from ..errors import DomainError, SeriesRefusalError
from .bessel_family import bessel_J_curve
from .evaluate import laplace_sG, laplace_sJ
from .maxwell import asym_J_time
from .params import DEFAULT_POLICY, ModelParams

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
    policy = policy or DEFAULT_POLICY
    ts = sorted(float(t) for t in t_grid)
    if not ts or ts[-1] > 0.5:
        raise DomainError("short-time grid must be non-empty and end at or below 0.5")
    if ts[0] < policy.t_floor:
        raise SeriesRefusalError(f"short-time agreement refused below t_floor = "
                                 f"{policy.t_floor!r} (smallest requested t = {ts[0]!r})")
    bessel_vals = bessel_J_curve(nu, ts, policy)
    residuals = tuple(abs(bessel_vals - asym_J_time(nu, ts)).tolist())
    ratios = tuple(r / math.sqrt(t) for r, t in zip(residuals, ts))
    consistent = all(a <= b for a, b in zip(ratios, ratios[1:]))
    return ShortTimeAgreementReport(
        nu=float(nu),
        times=tuple(ts),
        residuals=residuals,
        ratios=ratios,
        consistent=consistent,
    )
