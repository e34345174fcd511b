import math

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import bessel_j_reference, bisect_bessel_zero, scipy_bessel_zeros
from viscobessel.specfun import zeros as zeros_module
from viscobessel.errors import DomainError
from viscobessel.specfun import (
    ZeroTable,
    bessel_j,
    bessel_j_zeros,
    cache_path,
    load_zero_table,
    save_zero_table,
    zero_table,
)
from viscobessel.specfun.zeros import CACHE_ENV_VAR, CACHE_FORMAT_HEADER, configure_cache


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


def test_zero_tables_bit_identical_to_reference_finder(monkeypatch):
    tables = {nu: bessel_j_zeros(nu, 200).zeros for nu in BIT_IDENTITY_ORDERS}
    monkeypatch.setattr(zeros_module, "_j", bessel_j_reference)
    for nu in BIT_IDENTITY_ORDERS:
        assert bessel_j_zeros(nu, 200).zeros == tables[nu], nu


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty zero store for the test; the shared one is restored after."""
    monkeypatch.setattr(zeros_module, "_found", {})
    zero_table.cache_clear()
    yield zeros_module._found
    zero_table.cache_clear()


@pytest.mark.parametrize("full_first", [False, True], ids=["prefix-first", "full-first"])
@pytest.mark.parametrize("nu", [-0.9, -0.5, 0.0, 0.37, 1.0, 3.0, 5.0])
def test_zero_table_prefixes_are_bit_identical_to_the_full_table(
    monkeypatch, fresh_memo, nu, full_first
):
    # zero k depends only on (nu, k) and zero k - 1, so the memo grows one
    # prefix per order and finds each zero once, in either order of requests
    full = bessel_j_zeros(nu, 200).zeros
    refined, refine = [], zeros_module._refine
    monkeypatch.setattr(zeros_module, "_refine", lambda *a: refined.append(a[1]) or refine(*a))
    lengths = [1, 8, 16, 49, 64, 200]
    for n in lengths[::-1] if full_first else lengths:
        table = zero_table(nu, n)
        assert table.order == nu and table.zeros == full[:n]
    assert refined == list(range(1, 201))
    assert fresh_memo == {nu: list(full)}


def test_zero_table_validation():
    with pytest.raises(DomainError):
        ZeroTable(order=-1.5, zeros=(1.0,))
    with pytest.raises(DomainError):
        ZeroTable(order=0.0, zeros=(2.0, 1.0))
    with pytest.raises(DomainError):
        ZeroTable(order=0.0, zeros=())
    with pytest.raises(DomainError):
        bessel_j_zeros(0.0, 0)


def test_cache_round_trip_bit_exact(tmp_path):
    table = bessel_j_zeros(0.5, 25)
    path = tmp_path / "zeros.txt"
    save_zero_table(table, path)
    loaded = load_zero_table(path)
    assert loaded.order == table.order
    assert loaded.zeros == table.zeros  # bit-exact


def test_cache_file_format(tmp_path):
    table = bessel_j_zeros(-0.5, 2)
    path = save_zero_table(table, tmp_path / "z.txt")
    lines = path.read_text().splitlines()
    assert lines[0] == CACHE_FORMAT_HEADER == "viscobessel-zeros v1"
    assert lines[1] == "nu=-0.5 n=2"
    assert len(lines) == 4
    assert float(lines[2]) == table.zeros[0]


def test_cache_idempotent_bytes(tmp_path):
    p1 = save_zero_table(bessel_j_zeros(1.0, 10), tmp_path / "a.txt")
    first = p1.read_bytes()
    save_zero_table(bessel_j_zeros(1.0, 10), tmp_path / "a.txt")
    assert p1.read_bytes() == first


def test_zero_table_uses_cache_dir(tmp_path):
    # one file per order, holding the longest prefix asked for so far
    configure_cache(tmp_path)
    path = cache_path(0.0, tmp_path)
    for n, held in ((12, 12), (5, 12), (30, 30)):
        table = zero_table(0.0, n)
        assert table.zeros == bessel_j_zeros(0.0, n).zeros
        assert list(tmp_path.iterdir()) == [path]
        assert load_zero_table(path).zeros == bessel_j_zeros(0.0, held).zeros


def test_cache_env_var_override(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    assert cache_path(0.0) == tmp_path / "jzeros_nu0.0_acc1e-10.txt"


def test_load_rejects_foreign_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a zero table\n1.0\n")
    with pytest.raises(DomainError):
        load_zero_table(bad)


@given(
    st.lists(
        st.floats(min_value=1e-3, max_value=7.0, allow_nan=False), min_size=1, max_size=30
    )
)
def test_cache_round_trip_property(tmp_path_factory, increments):
    total = 0.0
    zeros = []
    for inc in increments:
        total += inc
        zeros.append(total)
    table = ZeroTable(order=0.25, zeros=tuple(zeros))
    path = tmp_path_factory.mktemp("zc") / "t.txt"
    save_zero_table(table, path)
    assert load_zero_table(path).zeros == table.zeros


@pytest.mark.parametrize("order", [6.0, 7.0, 7.5, 7.75, 8.0])
def test_tables_up_to_the_order_bound_match_scipy(order):
    # 200-zero tables hold up to order 8.2 and are off by 0.11 at 8.25; the
    # tables stop at order 8
    table = bessel_j_zeros(order, 200)
    assert max(abs(a - b) for a, b in zip(table.zeros, scipy_bessel_zeros(order, 200))) < 1e-10


@pytest.mark.parametrize("order", [8.05, 8.25, 10.0])
def test_tables_above_order_8_are_refused(tmp_path, order):
    for build in (bessel_j_zeros, zero_table):
        with pytest.raises(DomainError, match="zero tables stop at order 8, got "):
            build(order, 20)
    configure_cache(tmp_path)  # the file cache refuses before it reads
    with pytest.raises(DomainError, match="order 8"):
        zero_table(order, 20)
    assert list(tmp_path.iterdir()) == []


def test_cache_dir_reads_each_file_once_per_process(tmp_path, monkeypatch):
    # verify --check cm asks for its tables 38 times; under --cache-dir each
    # order's file is read once, and later asks reuse that prefix
    from viscobessel.cli import main

    argv = ["verify", "--check", "cm", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    files = sorted(tmp_path.iterdir())
    assert files
    loads = []
    real = zeros_module.load_zero_table
    monkeypatch.setattr(zeros_module, "load_zero_table", lambda p: loads.append(p) or real(p))
    configure_cache(None)  # a new store, as in a new process
    assert main(argv) == 0
    assert sorted(loads) == files


def test_figure_2_keeps_one_file_per_order_and_a_warm_store_builds_no_zero(
    tmp_path, monkeypatch, capsys
):
    from viscobessel.cli import FIGURE_BESSEL_NUS, main

    argv = ["eval", "--figure", "2", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    files = sorted(cache_path(nu, tmp_path) for nu in FIGURE_BESSEL_NUS)
    assert sorted(tmp_path.iterdir()) == files
    for nu in FIGURE_BESSEL_NUS:  # each file holds the longest prefix built
        assert load_zero_table(cache_path(nu, tmp_path)).zeros == tuple(zeros_module._found[nu])
    loads, refined = [], []
    load, refine = zeros_module.load_zero_table, zeros_module._refine
    monkeypatch.setattr(zeros_module, "load_zero_table", lambda p: loads.append(p) or load(p))
    monkeypatch.setattr(zeros_module, "_refine", lambda *a: refined.append(a[:2]) or refine(*a))
    configure_cache(None)  # a new store, as in a new process
    assert main(argv) == 0
    assert capsys.readouterr().out == cold
    assert sorted(loads) == files
    assert refined == []


@pytest.mark.parametrize("nu", [-0.9, -0.5, 0.0, 1.0, 3.0])
def test_a_cache_file_of_k_zeros_seeds_a_longer_table(tmp_path, monkeypatch, nu):
    # the file's k zeros round-trip bit for bit, so the table grown from them
    # equals a fresh one; only zeros k + 1 to n are built
    k, n = 20, 70
    full = bessel_j_zeros(nu, n).zeros
    path = save_zero_table(bessel_j_zeros(nu, k), cache_path(nu, tmp_path))
    configure_cache(tmp_path)
    refined, refine = [], zeros_module._refine
    monkeypatch.setattr(zeros_module, "_refine", lambda *a: refined.append(a[1]) or refine(*a))
    assert zero_table(nu, 5).zeros == full[:5]  # read, and neither built nor written
    assert refined == [] and len(load_zero_table(path)) == k
    assert zero_table(nu, n).zeros == full
    assert refined == list(range(k + 1, n + 1))
    assert load_zero_table(path).zeros == full
