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
    CACHE_ENV_VAR,
    ZeroTable,
    bessel_j_zeros,
    cache_path,
    load_zero_table,
    save_zero_table,
    zero_table,
)

__all__ = [
    "J_SERIES_MAX",
    "RATIO_ASYM_MIN",
    "CACHE_ENV_VAR",
    "ZeroTable",
    "bessel_i_ratio",
    "bessel_j",
    "bessel_j_zeros",
    "cache_path",
    "erfcx",
    "gamma_fn",
    "load_zero_table",
    "mittag_leffler_half",
    "mittag_leffler_series",
    "save_zero_table",
    "zero_table",
]
