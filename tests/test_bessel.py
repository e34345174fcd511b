import math

import mpmath
import numpy as np
import pytest

from oracles import bessel_j_reference, bisect_bessel_zero
from viscobessel.errors import DomainError
from viscobessel.specfun import J_SERIES_MAX, bessel_i_ratio, bessel_j

NUS = (-0.9, -0.5, 0.0, 0.5, 1.0, 2.0)


def test_j_at_origin():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(1.0, 0.0) == 0.0
    assert bessel_j(0.3, 0.0) == 0.0


def test_j_vanishes_at_first_zero_from_bisection_oracle():
    zero = bisect_bessel_zero(0.0, 2.0, 3.0)
    assert zero == pytest.approx(2.404825557695773, abs=1e-12)
    assert abs(bessel_j(0.0, zero)) <= 1e-10


def test_j_against_mpmath_sweep():
    xs = [0.05, 0.7, 3.0, 9.0, 13.9, 14.1, 20.0, 75.0, 320.0, 633.0]
    for nu in NUS + (3.0, 4.0):
        for x in xs:
            ref = float(mpmath.besselj(nu, x))
            assert bessel_j(nu, x) == pytest.approx(ref, abs=1e-10), (nu, x)


def test_j_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(-1.0, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0.0, -1.0)
    with pytest.raises(DomainError):
        bessel_j(-0.5, 0.0)  # diverges at the origin


def test_ratio_half_integer_value():
    # I_{3/2}(1)/I_{1/2}(1) = (cosh 1 - sinh 1)/sinh 1 = exp(-1)/sinh 1
    expected = math.exp(-1.0) / math.sinh(1.0)
    assert expected == pytest.approx(0.3130352854993313, rel=1e-14)
    assert bessel_i_ratio(1.5, 0.5, 1.0) == pytest.approx(expected, rel=1e-10)
    # and its reciprocal orientation
    assert bessel_i_ratio(0.5, 1.5, 1.0) == pytest.approx(1.0 / expected, rel=1e-10)


def test_ratio_small_argument_limit():
    for nu in (-0.5, 0.0, 2.0):
        x = 1e-6
        assert bessel_i_ratio(nu + 1.0, nu, x) == pytest.approx(
            x / (2.0 * (nu + 1.0)), rel=1e-6
        )


def test_ratio_large_argument_limit():
    for x in (1e3, 1e6, 1e8):
        assert bessel_i_ratio(1.0, 0.0, x) == pytest.approx(1.0, abs=2e-3 if x < 1e4 else 1e-6)


def test_ratio_against_mpmath_real():
    for nu in NUS:
        for x in (0.02, 1.0, 12.0, 80.0, 99.0, 101.0, 2e4):
            with mpmath.workdps(40):
                ref = float(
                    mpmath.besseli(nu + 1.0, mpmath.mpf(x))
                    / mpmath.besseli(nu, mpmath.mpf(x))
                )
            assert bessel_i_ratio(nu + 1.0, nu, x) == pytest.approx(ref, rel=1e-10)


def test_ratio_complex_against_mpmath():
    for z in (1.2 + 52.0j, 0.5 + 5.0j, 30.0 + 30.0j, 2.0 - 40.0j):
        for nu in (-0.5, 0.0, 1.5):
            with mpmath.workdps(40):
                ref = complex(
                    mpmath.besseli(nu + 1.0, mpmath.mpc(z))
                    / mpmath.besseli(nu, mpmath.mpc(z))
                )
            got = bessel_i_ratio(nu + 1.0, nu, z)
            assert abs(got - ref) / abs(ref) < 1e-10


def test_ratio_conjugate_symmetry():
    z = 3.0 + 7.0j
    a = bessel_i_ratio(1.0, 0.0, z)
    b = bessel_i_ratio(1.0, 0.0, z.conjugate())
    assert b == pytest.approx(a.conjugate(), rel=1e-12)


def test_ratio_domain_errors():
    with pytest.raises(DomainError):
        bessel_i_ratio(2.0, 0.0, 1.0)  # orders differ by 2
    with pytest.raises(DomainError):
        bessel_i_ratio(0.0, -1.0, 1.0)  # order at -1
    with pytest.raises(DomainError):
        bessel_i_ratio(1.0, 0.0, -3.0)  # negative real argument
    with pytest.raises(DomainError):
        bessel_i_ratio(1.0, 0.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_orders_are_refused(bad):
    # one order rule (errors.check_order): min(nu_num, nu_den) <= -1 let a NaN
    # through, and bessel_i_ratio(0.0, nan, 200.0) returned 1.0025
    for args in [(bad, 1.0), (0.0, bad, 200.0), (bad, 0.0, 2.0), (bad, 0.0, 1j)]:
        fn = bessel_j if len(args) == 2 else bessel_i_ratio
        with pytest.raises(DomainError, match=f"order nu must be finite and > -1, got {bad!r}"):
            fn(*args)


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(1.0, math.inf),
                               complex(-math.inf, 1.0), math.nan, math.inf, 0j])
def test_ratio_refuses_a_non_finite_or_zero_argument(z):
    # a complex NaN ended in a bare ValueError inside the continued fraction
    for orders in [(1.0, 0.0), (0.0, 1.0), (2.5, 3.5)]:
        with pytest.raises(DomainError, match="ratio argument must be finite"):
            bessel_i_ratio(*orders, z)


def _same_bits(a: float, b: float) -> bool:
    return a.hex() == b.hex()


def test_j_bit_identical_to_reference_random():
    # A last-bit change in one Hankel step moves ~1 result in 20,000, so the
    # sample is large.
    rng = np.random.default_rng(20161)
    nus = 5.0 - 5.99 * rng.random(40000)  # orders in (-0.99, 5]
    small = J_SERIES_MAX * (1.0 - rng.random(10000))  # x in (0, 14]
    large = 700.0 - (700.0 - J_SERIES_MAX) * rng.random(30000)  # x in (14, 700]
    for nu, x in zip(nus.tolist(), small.tolist() + large.tolist()):
        assert _same_bits(bessel_j(nu, x), bessel_j_reference(nu, x)), (nu, x)


def test_j_bit_identical_to_reference_at_switchover_and_origin():
    xs = [J_SERIES_MAX]
    for direction in (0.0, math.inf):
        x = J_SERIES_MAX
        for _ in range(4):
            x = math.nextafter(x, direction)
            xs.append(x)
    nus = (-0.98, -0.95, -0.5, -0.25, 0.0, 1e-9, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0)
    for nu in nus:
        for x in xs:
            assert _same_bits(bessel_j(nu, x), bessel_j_reference(nu, x)), (nu, x)
        if nu >= 0.0:
            assert _same_bits(bessel_j(nu, 0.0), bessel_j_reference(nu, 0.0)), nu
        else:
            for fn in (bessel_j, bessel_j_reference):
                with pytest.raises(DomainError):
                    fn(nu, 0.0)


def test_ratio_mpmath_argument_agrees_with_float_routes():
    # An mpmath node goes to mpmath's besseli; the float and complex routes
    # (continued fraction, large-argument quotient) must agree with it.
    with mpmath.workdps(45):
        for z in (1.2 + 52.0j, 0.5 + 5.0j, 30.0 - 30.0j, 150.0 + 90.0j):
            for nu in (-0.5, 0.0, 1.5):
                for num, den in ((nu + 1.0, nu), (nu + 1.0, nu + 2.0)):
                    got = bessel_i_ratio(num, den, mpmath.mpc(z))
                    assert isinstance(got, mpmath.mpc)
                    ref = bessel_i_ratio(num, den, z)
                    assert abs(complex(got) - ref) / abs(ref) < 1e-13, (z, num, den)
        for x in (0.3, 12.0, 99.0, 101.0, 2e4):
            got = bessel_i_ratio(1.0, 0.0, mpmath.mpf(x))
            assert isinstance(got, mpmath.mpf)
            assert float(got) == pytest.approx(bessel_i_ratio(1.0, 0.0, x), rel=1e-14)
        with pytest.raises(DomainError):
            bessel_i_ratio(1.0, 0.0, mpmath.mpc(0))
