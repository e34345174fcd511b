"""Material functions of the Bessel, fractional Maxwell and asymptotic families."""

from .bessel_family import (
    bessel_G_curve,
    bessel_G_laplace,
    bessel_G_time,
    bessel_J_curve,
    bessel_J_laplace,
    bessel_J_time,
    memory_phi_curve,
)
from .checks import (
    GLASS_S_LARGE,
    ShortTimeAgreementReport,
    glass_limits,
    reciprocity_residual,
    short_time_agreement,
)
from .evaluate import (
    eval_G_curve,
    eval_J_curve,
    laplace_sG,
    laplace_sJ,
)
from .maxwell import asym_G_time, asym_J_time
from .params import (
    DEFAULT_POLICY,
    FAMILIES,
    ModelParams,
    TruncationPolicy,
)

__all__ = [
    "DEFAULT_POLICY",
    "FAMILIES",
    "GLASS_S_LARGE",
    "ModelParams",
    "ShortTimeAgreementReport",
    "TruncationPolicy",
    "asym_G_time",
    "asym_J_time",
    "bessel_G_curve",
    "bessel_G_laplace",
    "bessel_G_time",
    "bessel_J_curve",
    "bessel_J_laplace",
    "bessel_J_time",
    "eval_G_curve",
    "eval_J_curve",
    "glass_limits",
    "laplace_sG",
    "laplace_sJ",
    "memory_phi_curve",
    "reciprocity_residual",
    "short_time_agreement",
]
