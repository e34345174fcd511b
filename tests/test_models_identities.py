"""Cross-family identities: short-time agreement and complete monotonicity."""

import pytest

from viscobessel.models import (
    ModelParams,
    TruncationPolicy,
    bessel_J_time,
    asym_J_time,
    memory_phi_curve,
    short_time_agreement,
)
from viscobessel.errors import DomainError, SeriesRefusalError
from viscobessel.models.evaluate import family_of
from viscobessel.models.maxwell import relaxation_memory

SHORT_GRID = (0.01, 0.02, 0.05, 0.1, 0.2)


@pytest.mark.parametrize("nu", [-0.5, 0.0, 1.0])
def test_short_time_tauberian_trend(nu):
    report = short_time_agreement(nu, SHORT_GRID)
    assert report.consistent
    # explicit endpoints of the monotone trend
    assert report.ratios[0] < report.ratios[-1]


@pytest.mark.parametrize("nu", [-0.5, 0.0, 1.0])
def test_short_time_residual_shrinks_toward_floor(nu):
    report = short_time_agreement(nu, SHORT_GRID)
    assert report.residuals[0] < report.residuals[-1]
    # the residual is O(t), so near the floor it is within a few times
    # (nu+1)(2nu+3) t of zero
    bound = 4.0 * (nu + 1.0) * (2.0 * nu + 3.0) * SHORT_GRID[0]
    assert report.residuals[0] <= bound


def test_short_time_agreement_leading_coefficient():
    # residual ~ (nu+1)(2nu+3) t from the second-order transform expansions
    nu = 0.5
    t = 0.01
    r = abs(bessel_J_time(nu, t) - asym_J_time(nu, t))
    assert r == pytest.approx((nu + 1.0) * (2.0 * nu + 3.0) * t, rel=0.2)


def test_short_time_grid_validation():
    # below the floor is a numerical refusal, past 0.5 or empty a usage error
    with pytest.raises(SeriesRefusalError, match=r"t_floor = 0.001 \(smallest requested t = 1e-05\)"):
        short_time_agreement(0.0, [1e-5, 0.1])
    for grid in ([0.1, 0.9], []):
        with pytest.raises(DomainError):
            short_time_agreement(0.0, grid)


def _derivative_signs_alternate(fn, t, h):
    f = [fn(t + k * h) for k in range(-2, 3)]
    d1 = (f[3] - f[1]) / (2 * h)
    d2 = (f[3] - 2 * f[2] + f[1]) / h**2
    d3 = (f[4] - 2 * f[3] + 2 * f[1] - f[0]) / (2 * h**3)
    d4 = (f[4] - 4 * f[3] + 6 * f[2] - 4 * f[1] + f[0]) / h**4
    return d1 < 0.0 < d2 and d3 < 0.0 < d4


@pytest.mark.parametrize("nu", [-0.5, 0.0])
def test_relaxation_memory_completely_monotonic_spot_check(nu):
    policy = TruncationPolicy()
    fn = lambda t: float(memory_phi_curve(nu, [t], policy)[0])
    for t in (0.1, 0.5, 1.0, 2.0):
        assert _derivative_signs_alternate(fn, t, 0.02), t


def _asym_memory(nu, t):
    params = ModelParams("asymptotic", nu=nu)
    return relaxation_memory(*family_of(params).law(params), t)


@pytest.mark.parametrize("nu", [-0.8, 0.0, 0.5])
def test_asym_memory_completely_monotonic_spot_check(nu):
    fn = lambda t: _asym_memory(nu, t)
    for t in (0.1, 0.5, 1.0, 2.0):
        assert _derivative_signs_alternate(fn, t, 0.02), t


def test_asym_memory_is_minus_dG_dt():
    from viscobessel.models import asym_G_time

    nu, t, h = 0.5, 0.7, 1e-5
    numeric = -(asym_G_time(nu, t + h) - asym_G_time(nu, t - h)) / (2 * h)
    assert _asym_memory(nu, t) == pytest.approx(numeric, rel=1e-8)


@pytest.mark.parametrize("a1,b1", [(1.0, 1.0), (0.4, 2.5), (3.0, 0.7)])
def test_fmax_memory_is_minus_dG_dt(a1, b1):
    from viscobessel.models import eval_G_curve

    params = ModelParams("fmax", a1=a1, b1=b1)
    t, h = 0.7, 1e-5
    numeric = -(eval_G_curve(params, t + h) - eval_G_curve(params, t - h)) / (2 * h)
    assert relaxation_memory(*family_of(params).law(params), t) == pytest.approx(numeric, rel=1e-7)


def test_memory_phi_matches_minus_dG_dt():
    from viscobessel.models import bessel_G_time

    nu, t, h = 0.0, 0.8, 1e-5
    numeric = -(bessel_G_time(nu, t + h) - bessel_G_time(nu, t - h)) / (2 * h)
    assert float(memory_phi_curve(nu, [t])[0]) == pytest.approx(numeric, rel=1e-7)

