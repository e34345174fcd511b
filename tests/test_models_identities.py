"""Cross-family identities: short-time agreement and complete monotonicity."""

import math

import mpmath
import numpy as np
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
from viscobessel.models.checks import _cm_signs
from viscobessel.models import maxwell
from viscobessel.models.maxwell import PHI_CF_MIN, relaxation_memory
from viscobessel.models.params import LAWS
from viscobessel.specfun import erfcx

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
    return relaxation_memory(*LAWS["asymptotic"](params), t)


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
    assert relaxation_memory(*LAWS["fmax"](params), t) == pytest.approx(numeric, rel=1e-7)


def test_memory_phi_matches_minus_dG_dt():
    from viscobessel.models import bessel_G_time

    nu, t, h = 0.0, 0.8, 1e-5
    numeric = -(bessel_G_time(nu, t + h) - bessel_G_time(nu, t - h)) / (2 * h)
    assert float(memory_phi_curve(nu, [t])[0]) == pytest.approx(numeric, rel=1e-7)



# the cm check's stencil: five times 0.02 apart around each of 0.1, 0.5, 1, 2
CM_STENCIL = np.add.outer((0.1, 0.5, 1.0, 2.0), np.arange(-2.0, 3.0) * 0.02)


def _memory_reference(lam, g, t):
    """Phi by mpmath: 1/sqrt(pi) - x erfcx(x) = x U(3/2, 3/2, x^2) / (2 sqrt(pi))
    (Tricomi's U), so Phi = lam^2 U(3/2, 3/2, lam^2 t) / (2 sqrt(pi) g), free
    of the cancellation and of erfc's range."""
    with mpmath.workdps(40):
        lam, t = mpmath.mpf(lam), mpmath.mpf(t)
        return float(lam**2 * mpmath.hyperu(1.5, 1.5, lam * lam * t) / (2 * mpmath.sqrt(mpmath.pi) * g))


def test_memory_reference_is_the_definition():
    with mpmath.workdps(60):
        lam, t = mpmath.mpf(3), mpmath.mpf("0.7")
        x = lam * mpmath.sqrt(t)
        direct = (lam / mpmath.sqrt(mpmath.pi * t) - lam**2 * mpmath.exp(x * x) * mpmath.erfc(x))
    assert _memory_reference(3.0, 1.0, 0.7) == pytest.approx(float(direct), rel=1e-15)


@pytest.mark.parametrize("g", [1.0, 0.37])
@pytest.mark.parametrize("lam", [0.4, 3.0, 2e10, 2e200])
def test_relaxation_memory_matches_mpmath_on_the_cm_stencil(lam, g):
    got = relaxation_memory(lam, g, CM_STENCIL)
    want = np.array([[_memory_reference(lam, g, t) for t in row] for row in CM_STENCIL])
    assert np.all(np.isfinite(got)) and np.all(got > 0.0)
    assert np.max(np.abs(got - want) / want) < 1e-13


def test_relaxation_memory_within_1e13_of_mpmath_for_x_from_1e_3_to_1e10():
    # x = lam sqrt(t); the difference of the two terms alone was 1.7e-12 off
    # near x = 2 and 1.3e-13 near x = 8, and useless past x = 1e8
    worst = 0.0
    for x in np.geomspace(1e-3, 1e10, 157):
        for t in (0.06, 0.7, 2.04):
            lam = x / math.sqrt(t)
            want = _memory_reference(lam, 1.0, t)
            worst = max(worst, abs(relaxation_memory(lam, 1.0, t) - want) / want)
    assert worst < 1e-13


def _memory_both_routes(lam, g, t):
    """relaxation_memory with both routes run on every input, empty subsets too."""
    t = np.asarray(t, dtype=float)
    root = np.sqrt(t)
    x = lam * root
    out, near = np.empty(t.shape), x < PHI_CF_MIN
    out[near] = (lam / (math.sqrt(math.pi) * root[near]) - lam * lam * erfcx(lam * root[near])) / g
    v = x = x[~near]
    for a in np.arange(100.5, 0.75, -0.5):
        v = x + a / v
    out[~near] = 0.5 / (math.sqrt(math.pi) * g) / t[~near] / (v + 0.5 / x)
    return out


@pytest.mark.parametrize("t", [CM_STENCIL, CM_STENCIL[0, 0], np.zeros(0)], ids=["stencil", "0-d", "empty"])
@pytest.mark.parametrize("lam", [0.4, 1.0, 5.0], ids=["all-near", "mixed", "all-far"])
def test_relaxation_memory_skipping_an_empty_route_keeps_every_bit(lam, t, monkeypatch):
    # on the cm stencil lam sqrt(t) runs over 0.10-0.57 (lam = 0.4),
    # 0.28-1.43 (1) and 1.22-7.14 (5)
    want = _memory_both_routes(lam, 0.37, t)
    got = relaxation_memory(lam, 0.37, t)
    assert np.asarray(got).shape == want.shape and np.asarray(got).tobytes() == want.tobytes()
    calls = []
    monkeypatch.setattr(maxwell, "erfcx", lambda x: calls.append(x) or erfcx(x))
    relaxation_memory(lam, 0.37, t)
    assert all(len(x) for x in calls)  # the near route runs only on a nonempty subset


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("at", range(5))
def test_cm_signs_count_a_value_that_is_not_finite_as_a_violation(at, bad):
    stencil = [1.0 / t for t in (0.96, 0.98, 1.0, 1.02, 1.04)]
    assert _cm_signs(stencil, 0.02) == 0.0
    stencil[at] = bad
    assert _cm_signs(stencil, 0.02) == math.inf
