import functools
import math

import numpy as np
import pytest

from oracles import erfc_quadrature, invert_stehfest, stehfest_weights
from viscobessel.errors import DomainError, InversionError
from viscobessel.laplace import LaplaceFunction, invert_talbot
from viscobessel.models import ModelParams, laplace_sG, laplace_sJ


def test_talbot_unit_step():
    assert invert_talbot(lambda s: 1 / s, 1.0, 64) == pytest.approx(1.0, abs=1e-10)


def test_talbot_ramp():
    assert invert_talbot(lambda s: 1 / s**2, 0.7, 64) == pytest.approx(0.7, abs=1e-10)


def test_talbot_exponential():
    got = invert_talbot(lambda s: 1 / (s + 1), 1.0, 64)
    assert got == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_talbot_minimum_nodes_still_reasonable():
    assert invert_talbot(lambda s: 1 / s, 2.0, 8) == pytest.approx(1.0, abs=1e-4)


def test_stehfest_unit_step():
    assert invert_stehfest(lambda s: 1 / s, 2.0) == pytest.approx(1.0, abs=1e-8)


def test_stehfest_power_half():
    # inverse of s^{-3/2} is 2 sqrt(t/pi)
    got = invert_stehfest(lambda s: s**-1.5, 1.0)
    assert got == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-5)


def test_stehfest_exponential():
    got = invert_stehfest(lambda s: 1 / (s + 1), 0.5)
    assert got == pytest.approx(math.exp(-0.5), abs=1e-5)


def test_stehfest_weight_identities():
    # In exact arithmetic sum_k V_k = 0 and sum_k V_k/k = 1 (the latter is
    # the N-term rule recovering f == 1 from F = 1/s exactly).  The float
    # conversion of the larger weights leaves a few 1e-6 of residue.
    for n in (8, 10, 12, 14, 16, 18):
        w = stehfest_weights(n)
        assert math.fsum(w) == pytest.approx(0.0, abs=1e-4)
        assert math.fsum(v / k for k, v in enumerate(w, start=1)) == pytest.approx(
            1.0, abs=2e-5
        )


def test_talbot_recovers_fmax_closed_forms():
    p = ModelParams("fmax", a1=1.0, b1=1.0)
    creep = invert_talbot(lambda s: laplace_sJ(p, s) / s, 1.0, 64)
    assert creep == pytest.approx(1.0 + 2.0 / math.sqrt(math.pi), abs=1e-8)
    relax = invert_talbot(lambda s: laplace_sG(p, s) / s, 1.0, 64)
    # E_{1/2}(-1), from the independent erfc quadrature oracle
    assert relax == pytest.approx(math.e * erfc_quadrature(1.0), abs=1e-7)


def test_talbot_recovers_asym_closed_form():
    p = ModelParams("asymptotic", nu=0.5)
    got = invert_talbot(lambda s: laplace_sG(p, s) / s, 0.25, 64)
    # G_as(0.25; 0.5) = E_{1/2}(-2(nu+1) sqrt(t)) = exp(2.25) erfc(1.5)
    assert got == pytest.approx(math.exp(2.25) * erfc_quadrature(1.5), abs=1e-7)


def test_talbot_doubling_plateau():
    p = ModelParams("bessel", nu=0.5)
    F = LaplaceFunction(lambda s: laplace_sJ(p, s) / s, "J~")
    a = invert_talbot(F, 0.7, 64)
    b = invert_talbot(F, 0.7, 128)
    assert abs(a - b) < 1e-8 * abs(a)


@pytest.mark.parametrize(
    "params",
    [
        ModelParams("bessel", nu=-0.5),
        ModelParams("bessel", nu=1.0),
        ModelParams("asymptotic", nu=0.5),
        ModelParams("fmax", a1=1.0, b1=1.0),
    ],
)
def test_talbot_stehfest_mutual_agreement_creep(params):
    ts = np.geomspace(0.05, 2.0, 7)
    for t in ts:
        F = lambda s: laplace_sJ(params, s) / s
        ta = invert_talbot(F, float(t), 64)
        st = invert_stehfest(F, float(t), 16)
        assert abs(ta - st) / abs(ta) < 1e-4, (params.label(), t)


@pytest.mark.parametrize(
    "params,t_hi",
    [
        (ModelParams("asymptotic", nu=0.5), 2.0),
        (ModelParams("fmax", a1=1.0, b1=1.0), 2.0),
        # The Bessel-family G decays like exp(-j1^2 t); once that exponent
        # passes ~1.2, real-axis Gaver-Stehfest sampling can no longer track
        # the decay at 1e-4 relative (its documented weak spot), so the
        # mutual-agreement range for those transforms stops there.
        (ModelParams("bessel", nu=-0.5), 0.48),
        (ModelParams("bessel", nu=1.0), 0.08),
    ],
)
def test_talbot_stehfest_mutual_agreement_relaxation(params, t_hi):
    for t in np.geomspace(0.05, t_hi, 6):
        F = lambda s: laplace_sG(params, s) / s
        ta = invert_talbot(F, float(t), 64)
        st = invert_stehfest(F, float(t), 14)
        assert abs(ta - st) / abs(ta) < 1e-4, (params.label(), t)


def test_inversion_error_carries_node():
    def bad(s):
        return float("nan")

    with pytest.raises(InversionError) as exc_info:
        invert_talbot(LaplaceFunction(bad, "bad"), 1.0, 16)
    assert exc_info.value.node is not None


def test_inversion_error_names_the_transform_by_its_label_or_name():
    # a LaplaceFunction is called as it is and names itself by its label; a
    # plain callable by its __name__, and one with neither as "F"
    def nan_transform(s):
        return float("nan")

    for F, label in [(LaplaceFunction(nan_transform, "G~"), "G~"), (nan_transform, "nan_transform"),
                     (functools.partial(nan_transform), "F")]:
        with pytest.raises(InversionError, match=rf"^{label} evaluated non-finite on the Talbot"):
            invert_talbot(F, 1.0, 16)


@pytest.mark.parametrize("t,M", [(0.0, 64), (-1.0, 64), (1.0, 7)])
def test_talbot_domain_errors(t, M):
    with pytest.raises(DomainError):
        invert_talbot(lambda s: 1 / s, t, M)


@pytest.mark.parametrize("t,N", [(1.0, 7), (1.0, 20), (1.0, 15), (0.0, 16)])
def test_stehfest_domain_errors(t, N):
    with pytest.raises(DomainError):
        invert_stehfest(lambda s: 1 / s, t, N)


def test_laplace_function_wrapper_callable():
    F = LaplaceFunction(lambda s: 1 / s, "step")
    assert F(2.0) == 0.5
    assert F.label == "step"
