import math

import mpmath
import pytest

from oracles import bessel_j_reference, bisect_bessel_zero, scipy_bessel_zeros
from viscobessel.specfun import zeros as zeros_module
from viscobessel.specfun.zeros import ORDER_MAX
from viscobessel.errors import DomainError
from viscobessel.specfun import ZeroTable, bessel_j, bessel_j_zeros, zero_table


def test_first_three_zeros_of_j0_vs_bisection_oracle():
    oracle = [
        bisect_bessel_zero(0.0, 2.0, 3.0),
        bisect_bessel_zero(0.0, 5.0, 6.0),
        bisect_bessel_zero(0.0, 8.0, 9.0),
    ]
    assert oracle == pytest.approx(
        [2.404825557695773, 5.520078110286311, 8.653727912911013], abs=1e-12
    )
    table = bessel_j_zeros(0.0, 3)
    assert list(table.zeros) == pytest.approx(oracle, abs=1e-10)


def test_cosine_order_zeros():
    # J_{-1/2}(x) is proportional to cos(x)/sqrt(x)
    table = bessel_j_zeros(-0.5, 2)
    assert list(table.zeros) == pytest.approx([math.pi / 2, 3 * math.pi / 2], abs=1e-10)


def test_rayleigh_partial_sum_200():
    table = bessel_j_zeros(0.0, 200)
    partial = table.rayleigh_partial()
    tail = 0.25 - partial
    assert 0.0 < tail < 1.0 / (math.pi**2 * 200.0)


@pytest.mark.parametrize("nu", [-0.9, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0])
def test_table_invariants(nu):
    table = bessel_j_zeros(nu, 120)
    zs = table.zeros
    assert all(b > a for a, b in zip(zs, zs[1:]))
    # spacing approaches pi
    for a, b in zip(zs[49:], zs[50:]):
        assert abs((b - a) - math.pi) < 0.01
    # the tabulated zeros really are zeros of this package's J
    assert max(abs(bessel_j(nu, z)) for z in zs) <= 1e-9
    # Rayleigh partial sums approach the limit from below, within the bound
    gap = table.rayleigh_limit() - table.rayleigh_partial()
    assert 0.0 < gap <= table.rayleigh_tail_bound()


@pytest.mark.parametrize("nu", [0.0, 0.5, 2.0, 5.0])
def test_zeros_against_mpmath(nu):
    table = bessel_j_zeros(nu, 200)
    for n in (1, 3, 40, 200):
        ref = float(mpmath.besseljzero(nu, n))
        assert table.zeros[n - 1] == pytest.approx(ref, abs=1e-10)


# The figure orders, those orders plus 2 (the creep tables), and a spread
# over (-1, 5].
BIT_IDENTITY_ORDERS = (
    -0.95, -0.9, -0.75, -0.5, -0.3, 0.0, 0.25, 0.5, 0.75, 1.0, 1.25,
    1.5, 1.7, 2.0, 2.2, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0,
)


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty zero store for the test; the shared one is restored after."""
    monkeypatch.setattr(zeros_module, "_found", {})
    zero_table.cache_clear()
    yield zeros_module._found
    zero_table.cache_clear()


def test_zero_tables_bit_identical_to_reference_finder(monkeypatch, fresh_memo):
    tables = {nu: bessel_j_zeros(nu, 200).zeros for nu in BIT_IDENTITY_ORDERS}
    monkeypatch.setattr(zeros_module, "_j", bessel_j_reference)
    fresh_memo.clear()  # so that the reference J finds every zero again
    zero_table.cache_clear()
    for nu in BIT_IDENTITY_ORDERS:
        assert bessel_j_zeros(nu, 200).zeros == tables[nu], nu


@pytest.mark.parametrize("full_first", [False, True], ids=["prefix-first", "full-first"])
@pytest.mark.parametrize("nu", [-0.9, -0.5, 0.0, 0.37, 1.0, 3.0, 5.0])
def test_zero_table_prefixes_are_bit_identical_to_the_full_table(
    monkeypatch, fresh_memo, nu, full_first
):
    # zero k depends only on (nu, k) and zero k - 1, so the memo grows one
    # prefix per order and finds each zero once, in either order of requests
    full = tuple(zeros_module._extend(nu, [], 200))  # one pass, outside the memo
    refined, refine = [], zeros_module._refine
    monkeypatch.setattr(zeros_module, "_refine", lambda *a: refined.append(a[1]) or refine(*a))
    lengths = [1, 8, 16, 49, 64, 200]
    for n in lengths[::-1] if full_first else lengths:
        table = zero_table(nu, n)
        assert table.order == nu and table.zeros == full[:n]
    assert refined == list(range(1, 201))
    assert fresh_memo == {nu: list(full)}


@pytest.mark.parametrize("nu", [-0.9, -0.5, 0.0, 1.0, 3.0])
def test_a_table_of_k_zeros_seeds_a_longer_one(monkeypatch, fresh_memo, nu):
    # bessel_j_zeros and zero_table share one store per order: a k-zero table
    # from either makes the longer table build only zeros k + 1 to n
    k, n = 20, 70
    full = tuple(zeros_module._extend(nu, [], n))  # one pass, outside the memo
    assert bessel_j_zeros(nu, k).zeros == full[:k]
    refined, refine = [], zeros_module._refine
    monkeypatch.setattr(zeros_module, "_refine", lambda *a: refined.append(a[1]) or refine(*a))
    assert zero_table(nu, 5).zeros == full[:5]
    assert refined == []
    assert zero_table(nu, n).zeros == full
    assert bessel_j_zeros(nu, n).zeros == full
    assert refined == list(range(k + 1, n + 1))


def test_zero_table_validation():
    with pytest.raises(DomainError):
        ZeroTable(order=-1.5, zeros=(1.0,))
    with pytest.raises(DomainError):
        ZeroTable(order=0.0, zeros=(2.0, 1.0))
    with pytest.raises(DomainError):
        ZeroTable(order=0.0, zeros=())
    with pytest.raises(DomainError):
        bessel_j_zeros(0.0, 0)


@pytest.mark.parametrize("order", [math.nan, math.inf, -math.inf, -1.0])
def test_tables_refuse_a_non_finite_order(order):
    for build in (bessel_j_zeros, zero_table):
        with pytest.raises(DomainError, match="order nu must be finite and > -1"):
            build(order, 5)
    with pytest.raises(DomainError, match="order nu must be finite and > -1"):
        ZeroTable(order=order, zeros=(1.0,))


@pytest.mark.parametrize("order", [-0.95, -0.5, 0.0, 1.0, 2.5, 4.0, 6.0, 7.0, ORDER_MAX])
def test_rayleigh_tail_stays_below_its_bound_on_scipy_zeros(order):
    # the bound's premise j_n >= (n + nu/2 - 3/4) pi fails for the first zeros
    # of high orders, but the bound holds against scipy's zeros at every N up
    # to 200, at most 0.94 of it for N <= 10 (ZeroTable.rayleigh_tail_bound);
    # at N = 1, nu <= -1/2 it was 1/0 or negative, and is the whole sum now
    zeros = scipy_bessel_zeros(order, 200)
    limit = 1.0 / (4.0 * (order + 1.0))
    for n in range(1, 201):
        tail = limit - math.fsum(z**-2 for z in zeros[:n])
        bound = ZeroTable(order=order, zeros=zeros[:n]).rayleigh_tail_bound()
        assert 0.0 < tail <= (0.94 if n <= 10 else 0.9952) * bound, n


@pytest.mark.parametrize("order", [6.0, 7.0, 7.5, 7.75, 8.0])
def test_tables_up_to_the_order_bound_match_scipy(order):
    # 200-zero tables hold up to order 8.2 and are off by 0.11 at 8.25; the
    # tables stop at order 8
    table = bessel_j_zeros(order, 200)
    assert max(abs(a - b) for a, b in zip(table.zeros, scipy_bessel_zeros(order, 200))) < 1e-10


@pytest.mark.parametrize("order", [8.05, 8.25, 10.0])
def test_tables_above_order_8_are_refused(order):
    for build in (bessel_j_zeros, zero_table):
        with pytest.raises(DomainError, match="zero tables stop at order 8, got "):
            build(order, 20)
    assert order not in zeros_module._found  # refused before the memo holds the order


def test_a_second_figure_2_in_one_process_builds_no_zero(monkeypatch, fresh_memo, capsys):
    # the memo keeps each order's longest prefix, so the same figure again
    # finds no zero and writes the same bytes
    from viscobessel.cli import FIGURE_BESSEL_NUS, main

    argv = ["eval", "--figure", "2"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert sorted(fresh_memo) == sorted(FIGURE_BESSEL_NUS)
    refined, refine = [], zeros_module._refine
    monkeypatch.setattr(zeros_module, "_refine", lambda *a: refined.append(a[:2]) or refine(*a))
    assert main(argv) == 0
    assert capsys.readouterr().out == cold
    assert refined == []


@pytest.mark.parametrize("order", [-0.9, -0.5, 0.0, 1.0, 2.5, 4.0, 6.0, 8.0])
def test_quartic_limit_is_the_sum_over_every_zero(order):
    # the second Rayleigh sum 1/(16 (nu+1)^2 (nu+2)) against 2,000 scipy
    # zeros, plus the tail past them as if j_n = (n + nu/2 - 1/4) pi
    zeros = scipy_bessel_zeros(order, 2000)
    tail = 1.0 / (3.0 * math.pi**4 * (len(zeros) + 0.25 + 0.5 * order) ** 3)
    total = math.fsum(z**-4 for z in zeros) + tail
    table = zero_table(order, 10)
    assert table.quartic_limit() == pytest.approx(total, rel=5e-14, abs=0.0)
    assert table.quartic_partial < table.quartic_limit()
