import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import erfc_quadrature, mittag_leffler_series_oracle
from viscobessel.errors import DomainError
from viscobessel.specfun import mittag_leffler_half, mittag_leffler_series


def test_value_at_zero():
    assert mittag_leffler_half(0.0) == 1.0


def test_minus_one_from_erfc_oracle():
    expected = math.e * erfc_quadrature(1.0)
    assert expected == pytest.approx(0.42758357615580700, rel=1e-12)
    assert mittag_leffler_half(-1.0) == pytest.approx(expected, rel=1e-10)


def test_small_argument_matches_series_oracle():
    oracle = mittag_leffler_series_oracle(0.5, -0.1, 41)
    assert mittag_leffler_half(-0.1) == pytest.approx(oracle, abs=1e-10)


def test_series_op_recovers_exp():
    assert mittag_leffler_series(1.0, 1.0, 30) == pytest.approx(math.e, rel=1e-12)


def test_series_op_single_term():
    # single term is 1/Gamma(1), exact up to the gamma contract
    assert mittag_leffler_series(0.5, 0.0, 1) == pytest.approx(1.0, rel=1e-12)


def test_series_op_matches_the_stdlib_gamma_oracle():
    # 1/Gamma from math.gamma: the Lanczos gamma_fn left 3.1e-14 relative
    worst = max(abs(mittag_leffler_series(alpha, z, 60) / mittag_leffler_series_oracle(alpha, z, 60)
                    - 1.0)
                for alpha in (0.5, 1.0, 1.5) for z in [-2.0 + 0.05 * k for k in range(81)])
    assert worst <= 1.5e-14


def test_series_cross_oracle_agreement():
    series = mittag_leffler_series(0.5, -0.5, 60)
    assert mittag_leffler_half(-0.5) == pytest.approx(series, abs=1e-10)


def test_bounded_in_unit_interval():
    for i in range(81):
        z = -0.25 * i
        v = mittag_leffler_half(z)
        assert 0.0 < v <= 1.0


@given(st.floats(min_value=-19.9, max_value=-0.01), st.floats(min_value=0.01, max_value=0.1))
def test_strictly_decreasing_in_magnitude(z, dz):
    assert mittag_leffler_half(z - dz) < mittag_leffler_half(z)


def test_positive_argument_rejected():
    with pytest.raises(DomainError):
        mittag_leffler_half(0.5)


@pytest.mark.parametrize(
    "alpha,z,n", [(-1.0, 0.0, 5), (0.5, 3.0, 5), (0.5, 0.0, 0)]
)
def test_series_domain_errors(alpha, z, n):
    with pytest.raises(DomainError):
        mittag_leffler_series(alpha, z, n)
