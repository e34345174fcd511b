"""Numerical inverse Laplace transform used as an independent oracle.

``invert_talbot``
    The fixed Talbot rule of Abate & Valko (2004): trapezoidal quadrature of
    the Bromwich integral on the single-parameter deformed contour

        s(theta) = r theta (cot(theta) + i),   0 < theta < pi,   r = 2M/(5t),

    with the real starting node s(0) = r.  The M-term sum is

        f(t) ~ (2 / (5 t)) * sum_k Re[ gamma_k * F(s_k) ],
        gamma_0 = exp(r t) / 2,
        gamma_k = exp(t s_k) (1 + i theta_k (1 + cot^2 theta_k) - i cot theta_k).

    In double precision the alternating terms of size ~exp(2M/5) put a hard
    floor of roughly eps * exp(2M/5) on the absolute error (~1e-6 at M = 64),
    which is useless for relaxation moduli that decay below it.  The sum is
    therefore evaluated in mpmath arithmetic with working precision scaled to
    M, and the transform is called with mpmath complex nodes.  The package's
    Laplace-domain material functions accept such nodes: the algebraic
    families evaluate them in mpmath arithmetic, and the Bessel family hands
    its I-ratio to mpmath's ``besseli``.  mpmath is imported on the first
    call, so processes that never invert a transform never load it.

References: Talbot (1979), IMA J. Appl. Math. 23; Abate & Valko (2004),
Int. J. Numer. Meth. Eng. 60.
"""

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, InversionError, check_count

__all__ = [
    "LaplaceFunction",
    "invert_talbot",
]


@dataclass(frozen=True)
class LaplaceFunction:
    """A Laplace-domain evaluator F(s) with a label for error reporting.

    The evaluator must be finite on the contours it is used with and satisfy
    F(conj(s)) = conj(F(s)) so the inverse is real.
    """

    evaluator: Callable
    label: str = "F"

    def __call__(self, s):
        return self.evaluator(s)


def invert_talbot(transform, t: float, M: int = 64) -> float:
    """Invert a Laplace transform at time t > 0 with the fixed Talbot rule.

    M is the number of contour nodes (M >= 8).  Working precision grows with
    M, so doubling M genuinely tightens the answer instead of drowning in
    roundoff; M = 64 resolves the material functions of this package to
    better than 1e-8 relative for t >= 0.05.
    """
    label = getattr(transform, "label", getattr(transform, "__name__", "F"))
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError(f"invert_talbot requires t > 0, got {t!r}")
    M = check_count(M, 8, "invert_talbot's M")
    from mpmath import mp

    # exp(r t) = exp(2M/5) costs 2M/(5 ln 10) digits to cancellation; budget
    # those plus ~25 result digits plus guard digits.
    dps = int(0.18 * M) + 34
    with mp.workdps(dps):
        tt = mp.mpf(t)
        r = mp.mpf(2) * M / (5 * tt)
        # Contributions damped below the working precision are skipped; the
        # cutoff keeps |exp(t s)| * poly(M) under one ulp of the big terms.
        log_cut = -(dps * math.log(10) + 30)
        total = mp.exp(r * tt) / 2 * _eval_node(mp, transform, mp.mpc(r, 0), label)
        for k in range(1, M):
            theta = mp.pi * k / M
            cot = mp.cos(theta) / mp.sin(theta)
            rtc = r * tt * theta * cot  # Re(t s_k)
            if rtc < log_cut:
                continue
            s_k = r * theta * mp.mpc(cot, 1)
            gamma = mp.exp(tt * s_k) * mp.mpc(1, theta * (1 + cot**2) - cot)
            total += gamma * _eval_node(mp, transform, s_k, label)
        return float(mp.re(total) * 2 / (5 * tt))


def _eval_node(mp, F, s, label):
    value = F(s)
    if not mp.isfinite(value):
        raise InversionError(
            f"{label} evaluated non-finite on the Talbot contour at s = {s}",
            node=complex(s),
        )
    return value
