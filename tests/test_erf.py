import math

import numpy as np
import pytest

from oracles import erfc_quadrature, erfcx_reference
from viscobessel.errors import DomainError
from viscobessel.specfun import erfcx


def test_erfc_at_zero():
    assert erfcx(0.0) == 1.0  # erfc(0) exp(0)


def test_erfc_one_vs_quadrature_oracle():
    oracle = erfc_quadrature(1.0)
    assert oracle == pytest.approx(0.15729920705028513, rel=1e-12)
    assert math.exp(-1.0) * erfcx(1.0) == pytest.approx(oracle, rel=1e-12)


def test_erfcx_large_x_asymptote():
    # erfcx(x) ~ 1/(x sqrt(pi)) to leading order
    assert erfcx(50.0) == pytest.approx(1.0 / (50.0 * math.sqrt(math.pi)), rel=1e-3)


def test_erfcx_above_1e8_against_scipy():
    # past ERFCX_ASYM_MIN erfcx is (1/sqrt(pi))/x; the continued fraction it
    # replaces there was off by 1e-10 at 1e290 and by 1.7e8 at 1.7e308
    from scipy.special import erfcx as scipy_erfcx

    xs = np.geomspace(1e8, 1.7e308, 4001)
    np.testing.assert_allclose(erfcx(xs), scipy_erfcx(xs), rtol=2.3e-16, atol=5e-324)
    assert erfcx(1e8) == erfcx_reference(1e8)  # the continued fraction up to 1e8


def test_erfcx_scaling_identity_on_0_5():
    for i in range(51):
        x = 0.1 * i
        assert erfcx(x) * math.exp(-x * x) == pytest.approx(math.erfc(x), rel=1e-12)


def test_erfc_against_stdlib():
    x = -6.0
    while x < 26.0:
        ref = math.erfc(x)
        if ref > 1e-290:
            assert math.exp(-x * x) * erfcx(x) == pytest.approx(ref, rel=2e-13), f"x={x}"
        x += 0.17


def test_erfc_negative_reflection():
    # erfc(-x) = 2 - erfc(x)
    assert erfcx(-1.0) == pytest.approx(2.0 * math.e - erfcx(1.0), rel=1e-14)


def test_erfcx_strictly_decreasing():
    values = [erfcx(0.05 * i) for i in range(200)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_erfcx_overflow_for_very_negative():
    with pytest.raises(OverflowError):
        erfcx(-27.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_rejected(bad):
    with pytest.raises(DomainError):
        erfcx(bad)


ERFCX_EDGES = [0.0, -0.0, 1e-300, np.nextafter(2.0, -np.inf), 2.0,
               np.nextafter(2.0, np.inf), 26.0, 1e8, -1e-300, -1.0, -2.0, -2.5, -26.0]


def test_erfcx_scalar_edges_match_reference_bit_for_bit():
    for x in ERFCX_EDGES:
        value = erfcx(x)
        assert type(value) is float
        assert value == erfcx_reference(x), f"x={x!r}"


@pytest.mark.parametrize("n", [1, 2, 7, 50_000])
def test_erfcx_arrays_match_reference_bit_for_bit(n):
    # dense in the series region and near the switchover, where most
    # elements take many steps and np.exp would differ from libm exp
    rng = np.random.default_rng(n)
    xs = np.concatenate([
        ERFCX_EDGES,
        rng.uniform(-26.0, 30.0, n),
        rng.uniform(-2.0, 2.0, n),
        rng.uniform(1.99, 2.01, n),
        np.geomspace(1e-300, 1e8, n),
    ])
    rng.shuffle(xs)
    expected = np.array([erfcx_reference(x) for x in xs.tolist()])
    got = erfcx(xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    assert np.array_equal(got, expected)
    assert np.array_equal(erfcx(xs.reshape(-1, 1)), expected.reshape(-1, 1))


def test_erfcx_empty_array():
    got = erfcx(np.zeros(0))
    assert got.dtype == float and got.shape == (0,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_erfcx_array_quotes_first_non_finite_element(bad):
    with pytest.raises(DomainError) as err:
        erfcx(np.array([1.0, 3.0, bad, math.nan]))
    assert str(err.value) == f"erfcx requires finite x, got {bad!r}"


def test_erfcx_array_overflow_for_very_negative():
    with pytest.raises(OverflowError):
        erfcx(np.array([0.5, 30.0, -27.0]))
