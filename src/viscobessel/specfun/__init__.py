"""Real-order special functions underpinning the viscoelastic models."""

from .bessel import (
    J_SERIES_MAX,
    RATIO_ASYM_MIN,
    bessel_i_ratio,
    bessel_j,
)
from .erf import erfcx
from .gamma import gamma_fn
from .mittag import mittag_leffler_half, mittag_leffler_series
from .zeros import (
    ZeroTable,
    bessel_j_zeros,
    zero_table,
)

__all__ = [
    "J_SERIES_MAX",
    "RATIO_ASYM_MIN",
    "ZeroTable",
    "bessel_i_ratio",
    "bessel_j",
    "bessel_j_zeros",
    "erfcx",
    "gamma_fn",
    "mittag_leffler_half",
    "mittag_leffler_series",
    "zero_table",
]
