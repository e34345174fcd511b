"""Mittag-Leffler function of order 1/2 on the negative real axis.

E_{1/2}(z) = sum_n z^n / Gamma(n/2 + 1) reduces to exp(z^2) erfc(-z) for real
z, so for z <= 0 (the only range the relaxation moduli evaluate) it is just
erfcx(-z): positive, bounded by 1 and strictly decreasing in |z| with no
overflow anywhere.
"""

import math

import numpy as np

from ..errors import DomainError
from .erf import erfcx


def mittag_leffler_half(z):
    """E_{1/2}(z) for z <= 0, elementwise (a float for a scalar z)."""
    z = np.asarray(z, dtype=float)
    bad = z[~(np.isfinite(z) & (z <= 0.0))]
    if bad.size and not math.isfinite(bad[0]):
        raise DomainError(f"mittag_leffler_half requires finite z, got {float(bad[0])!r}")
    if bad.size:
        raise DomainError(
            f"mittag_leffler_half is restricted to z <= 0 (got {float(bad[0])!r}); "
            "positive arguments grow like exp(z^2) and are outside model range"
        )
    return erfcx(-z)


def mittag_leffler_series(alpha: float, z: float, n_terms: int) -> float:
    """Truncated Taylor sum of E_alpha(z), for oracle-style cross checks.

    Restricted to |z| <= 2 where the truncated sum is numerically benign.
    """
    alpha = float(alpha)
    z = float(z)
    if alpha <= 0.0:
        raise DomainError(f"order alpha must be positive, got {alpha!r}")
    if abs(z) > 2.0:
        raise DomainError(f"series evaluation restricted to |z| <= 2, got {z!r}")
    if n_terms < 1:
        raise DomainError(f"n_terms must be >= 1, got {n_terms!r}")
    total = 0.0
    power = 1.0
    for n in range(n_terms):
        total += power / math.gamma(alpha * n + 1.0)
        power *= z
    return total
