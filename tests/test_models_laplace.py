import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from viscobessel.errors import DomainError
from viscobessel.models import (
    FAMILIES,
    ModelParams,
    bessel_G_laplace,
    bessel_J_laplace,
    eval_G_curve,
    glass_limits,
    laplace_sG,
    laplace_sJ,
    reciprocity_residual,
)

S_GRID = [10.0**k for k in range(-2, 5)]
ALL_PARAMS = (
    [ModelParams("bessel", nu=nu) for nu in (-0.8, -0.5, 0.0, 0.5, 1.0)]
    + [ModelParams("asymptotic", nu=nu) for nu in (-0.8, -0.5, 0.0, 0.5, 1.0)]
    + [ModelParams("fmax", a1=1.0, b1=1.0)]
)


def test_bessel_creep_transform_half_order_value():
    # 2(nu+1)/sqrt(s) * I_{1/2}/I_{3/2} at nu=-1/2, s=1 reduces to
    # sinh(1) / (cosh(1) - sinh(1)).
    expected = 1.0 + math.sinh(1.0) / (math.cosh(1.0) - math.sinh(1.0))
    assert expected == pytest.approx(4.1945280494653251, rel=1e-14)
    assert bessel_J_laplace(-0.5, 1.0) == pytest.approx(expected, rel=1e-12)


def test_bessel_relaxation_transform_half_order_value():
    expected = 1.0 - math.tanh(1.0)
    assert bessel_G_laplace(-0.5, 1.0) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("nu", [-0.5, 0.0, 1.0, 2.0])
def test_bessel_large_s_asymptote(nu):
    # s Jt(s) ~ 1 + 2(nu+1)/sqrt(s) for s -> infinity
    for s in (1e4, 1e6, 1e8):
        lead = 1.0 + 2.0 * (nu + 1.0) / math.sqrt(s)
        value = bessel_J_laplace(nu, s)
        assert abs(value - lead) < 10.0 * (nu + 1.0) ** 2 / s
        assert value == pytest.approx(1.0, abs=3.0 * (nu + 1.0) / math.sqrt(s))


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.label())
def test_reciprocity_on_log_grid(params):
    assert reciprocity_residual(params, S_GRID) <= 1e-10


def _talbot_nodes(t, M):
    r = 2.0 * M / (5.0 * t)
    nodes = [complex(r, 0.0)]
    for k in range(1, M):
        theta = k * math.pi / M
        cot = math.cos(theta) / math.sin(theta)
        node = r * theta * complex(cot, 1.0)
        if node.real * t > -40.0:  # undamped part of the contour
            nodes.append(node)
    return nodes


@pytest.mark.parametrize("params", ALL_PARAMS[:5], ids=lambda p: p.label())
def test_reciprocity_at_talbot_nodes(params):
    nodes = _talbot_nodes(0.05, 32) + _talbot_nodes(2.0, 32)
    assert reciprocity_residual(params, nodes) <= 1e-10


def test_bessel_relaxation_glass_side():
    # s -> infinity limit of s Gt is the unit glass modulus
    assert bessel_G_laplace(0.5, 1e12) == pytest.approx(1.0, abs=1e-5)


def test_fmax_transforms_and_reciprocity():
    params = ModelParams("fmax", a1=2.0, b1=3.0)
    for s in S_GRID:
        j = laplace_sJ(params, s)
        g = laplace_sG(params, s)
        root = math.sqrt(s)
        assert j == pytest.approx((1.0 + 2.0 * root) / (3.0 * root), rel=1e-14)
        assert j * g == pytest.approx(1.0, abs=1e-14)


def test_asym_point_values():
    params = ModelParams("asymptotic", nu=0.0)
    assert laplace_sJ(params, 4.0) == pytest.approx(2.0, rel=1e-15)
    assert laplace_sG(params, 4.0) == pytest.approx(0.5, rel=1e-15)


def test_asym_matches_bessel_asymptote():
    # the asymptotic family is defined by the Bessel family's large-s limit
    for nu in (-0.5, 0.0, 1.0):
        for s in (1e6, 1e8):
            assert laplace_sJ(ModelParams("asymptotic", nu=nu), s) == pytest.approx(
                bessel_J_laplace(nu, s), abs=5.0 * (nu + 1.0) ** 2 / s
            )


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.label())
def test_glass_limits_from_large_s(params):
    jg, gg = glass_limits(params)
    assert jg == pytest.approx(1.0, abs=1e-6)
    assert gg == pytest.approx(1.0, abs=1e-6)
    assert jg * gg == pytest.approx(1.0, abs=1e-6)


def test_conjugate_symmetry():
    s = complex(1.5, 2.5)
    for params in (ModelParams("bessel", nu=0.5), ModelParams("fmax", a1=1.0, b1=2.0)):
        a = laplace_sJ(params, s)
        b = laplace_sJ(params, s.conjugate())
        assert cmath.isclose(b, a.conjugate(), rel_tol=1e-12)
        a = laplace_sG(params, s)
        b = laplace_sG(params, s.conjugate())
        assert cmath.isclose(b, a.conjugate(), rel_tol=1e-12)


@given(
    st.floats(min_value=-0.95, max_value=3.0),
    st.floats(min_value=-2.0, max_value=4.0),
)
def test_reciprocity_property(nu, log_s):
    s = 10.0**log_s
    prod = bessel_J_laplace(nu, s) * bessel_G_laplace(nu, s)
    assert abs(prod - 1.0) <= 1e-10


@pytest.mark.parametrize(
    "fn",
    [
        lambda s: bessel_J_laplace(0.0, s),
        lambda s: bessel_G_laplace(0.0, s),
        lambda s: laplace_sJ(ModelParams("fmax", a1=1.0, b1=1.0), s),
        lambda s: laplace_sG(ModelParams("asymptotic", nu=0.0), s),
    ],
)
def test_zero_s_rejected(fn):
    with pytest.raises(DomainError):
        fn(0.0)


def test_params_validation():
    with pytest.raises(DomainError):
        ModelParams("bessel", nu=-1.0)
    with pytest.raises(DomainError):
        ModelParams("bessel", a1=1.0, b1=1.0)
    with pytest.raises(DomainError):
        ModelParams("fmax", nu=0.5)
    with pytest.raises(DomainError):
        ModelParams("fmax", a1=-1.0, b1=1.0)
    with pytest.raises(DomainError):
        ModelParams("kelvin", nu=0.5)


@pytest.mark.parametrize("a1,b1", [
    (math.inf, 1.0), (1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan),
])
def test_params_reject_nonfinite_fmax_coefficients(a1, b1):
    with pytest.raises(DomainError) as err:
        ModelParams("fmax", a1=a1, b1=b1)
    assert str(err.value) == f"a1, b1 must be finite and > 0, got {a1!r}, {b1!r}"


ONE_PER_FAMILY = {"bessel": ModelParams("bessel", nu=0.5),
                  "asymptotic": ModelParams("asymptotic", nu=0.5),
                  "fmax": ModelParams("fmax", a1=0.3, b1=2.0)}


@pytest.mark.parametrize("s", [0.0, 0j, math.nan, math.inf, -math.inf, complex(math.nan, 0.0),
                               complex(1.0, math.inf), complex(-math.inf, 0.0)], ids=repr)
@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_refuses_s_outside_the_transform_domain(family, s):
    # one rule (params.transform_root): the closed forms returned NaN at
    # s = NaN, and the Bessel form raised a bare ValueError at a complex NaN
    for fn in (laplace_sJ, laplace_sG):
        with pytest.raises(DomainError, match="outside the transform domain"):
            fn(ONE_PER_FAMILY[family], s)


@pytest.mark.parametrize("kwargs,law", [
    ({"family": "fmax", "a1": 1e-300, "b1": 1e300}, "g = 0.0"),  # g = a1/b1 underflows
    ({"family": "fmax", "a1": 5e-324, "b1": 1.0}, "lam = inf"),  # 1/a1 overflows
    ({"family": "fmax", "a1": 1e300, "b1": 1e-300}, "g = inf"),
    ({"family": "asymptotic", "nu": 1e308}, "lam = inf"),  # 2(nu+1) overflows
    ({"family": "asymptotic", "nu": 9e307}, "lam = inf"),
])
def test_params_refuse_a_law_that_is_not_finite_and_positive(kwargs, law):
    with pytest.raises(DomainError, match=r"\]: law lam = .* must be finite and > 0$") as err:
        ModelParams(**kwargs)
    assert law in str(err.value)


def test_params_keep_extreme_laws_that_are_finite():
    # lam = 1e300 and g = 1e-300 are both finite; G(1) = erfcx(1e300)/g is
    # (1/sqrt(pi))/(lam g) to 1/(2 lam^2), and read 1.128 while erfcx's
    # continued fraction ran up there
    params = ModelParams("fmax", a1=1e-300, b1=1.0)
    assert laplace_sJ(params, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert eval_G_curve(params, 1.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)
    assert ModelParams("asymptotic", nu=8e307).nu == 8e307
