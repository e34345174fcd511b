import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oracles import (
    SUB_ULP_CUT_BEFORE,
    bessel_G_two_term,
    bessel_J_two_term,
    bisect_bessel_zero,
    closed_form_reference,
    dirichlet_reference,
    dirichlet_sum_uncut,
    erfc_quadrature,
    planned_dirichlet_sum,
    scipy_bessel_zeros,
    scipy_series,
    series_plan_reference,
    truncation_reference,
)
from viscobessel.cli import FIGURE_ASYM_NUS, FIGURE_GRID_LIN, FIGURE_GRID_LOG
from viscobessel.errors import SeriesRefusalError, TableExhaustedError
from viscobessel.laplace import invert_talbot
from viscobessel.models import (
    DEFAULT_POLICY,
    FAMILIES,
    ModelParams,
    TruncationPolicy,
    asym_G_time,
    asym_J_time,
    bessel_G_laplace,
    bessel_G_curve,
    bessel_G_time,
    bessel_J_curve,
    bessel_J_laplace,
    bessel_J_time,
    eval_G_curve,
    eval_J_curve,
    memory_phi_curve,
)
from viscobessel.errors import DomainError
from viscobessel.models import bessel_family
from viscobessel.models.evaluate import (
    creep_integral_curve,
    relax_integral_curve,
)
from viscobessel.models.maxwell import relaxation_memory
from viscobessel.models.params import LAWS, N_MIN
from viscobessel.specfun import mittag_leffler_half, mittag_leffler_series, zero_table


# ---------------------------------------------------------------------------
# Bessel family, time domain
# ---------------------------------------------------------------------------


def test_creep_at_two_matches_linear_plus_constant_terms():
    # At t = 2 the series tail is ~1e-23: J = 2*(2/3) + 4*2*2 exactly.
    assert bessel_J_time(0.0, 2.0) == pytest.approx(4.0 / 3.0 + 16.0, abs=1e-9)


def test_relaxation_at_two_single_term_dominates():
    j1 = bisect_bessel_zero(2.0, 5.0, 5.5)  # first zero of J_2
    assert j1 == pytest.approx(5.1356223018406826, abs=1e-10)
    # J-series tail at t=2 for order nu+2: 4 exp(-2 j1^2)/j1^2 ~ 1e-23
    tail = 4.0 * math.exp(-2.0 * j1**2) / j1**2
    assert tail < 1e-22

    j01 = bisect_bessel_zero(0.0, 2.0, 3.0)
    single = 4.0 * math.exp(-2.0 * j01**2) / j01**2
    assert bessel_G_time(0.0, 2.0) == pytest.approx(single, rel=1e-2)


def test_short_time_value_approaches_unit_glass():
    # glass compliance is 1; at the series floor J is 1 + O(sqrt(t))
    v = bessel_J_time(0.0, 1e-3)
    assert v == pytest.approx(bessel_J_two_term(0.0, 1e-3), abs=2e-4)
    assert 1.0 < v < 1.1


@pytest.mark.parametrize("nu", [-0.5, 0.0, 1.0])
def test_series_agrees_with_talbot_inversion(nu):
    for t in (0.05, 1.0):
        j_inv = invert_talbot(lambda s: bessel_J_laplace(nu, s) / s, t, 64)
        assert bessel_J_time(nu, t) == pytest.approx(j_inv, rel=1e-7)
        g_inv = invert_talbot(lambda s: bessel_G_laplace(nu, s) / s, t, 64)
        assert bessel_G_time(nu, t) == pytest.approx(g_inv, rel=1e-7)


def test_memory_phi_single_term_value():
    j01 = bisect_bessel_zero(0.0, 2.0, 3.0)
    assert memory_phi_curve(0.0, [2.0])[0] == pytest.approx(
        4.0 * math.exp(-2.0 * j01**2), rel=1e-2)


def test_memory_phi_positive_decreasing():
    ts = np.geomspace(1e-3, 3.0, 40)
    for nu in (-0.5, 0.5):
        values = [float(memory_phi_curve(nu, [t])[0]) for t in ts]
        assert all(v > 0.0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))


def test_series_refusal_below_floor():
    with pytest.raises(SeriesRefusalError):
        bessel_J_time(0.0, 1e-4)
    with pytest.raises(SeriesRefusalError):
        bessel_G_time(0.0, 5e-4, TruncationPolicy(t_floor=1e-3))


@pytest.mark.parametrize("fn", ["J", "G", "Phi"])
@pytest.mark.parametrize("ts,error", [([1e-4, 0.5], SeriesRefusalError),
                                      ([math.nan, 0.5], DomainError)])
def test_refused_times_build_no_zero_table(monkeypatch, fn, ts, error):
    # the times are checked before any zero table is asked for
    asked = []
    monkeypatch.setattr(bessel_family, "zero_table", lambda *a: asked.append(a))
    with pytest.raises(error):
        SERIES_CURVES[fn](0.37, ts)
    assert asked == []


def test_table_exhausted_error():
    # 10 zeros cannot reach tol=1e-10 at t just above a tiny floor
    policy = TruncationPolicy(tol=1e-10, n_max=10, t_floor=1e-3)
    with pytest.raises(TableExhaustedError):
        bessel_G_time(0.0, 1e-3, policy)


@pytest.mark.parametrize("call", [
    lambda: relax_integral_curve(ModelParams("bessel", nu=0.0), [1.0], TruncationPolicy(n_max=200.0)),
    lambda: bessel_G_curve(0.0, [1.0], TruncationPolicy(n_max=8.5)),
    lambda: zero_table(0.0, 2.5),
    lambda: zero_table(0.0, 200.0),  # after zero_table(0.0, 200): not a cache hit
    lambda: invert_talbot(lambda s: 1.0 / s, 1.0, 8.5),
    lambda: mittag_leffler_series(0.5, 0.1, 2.5),
], ids=["policy-200.0", "policy-8.5", "zeros-2.5", "zeros-200.0", "talbot-8.5", "mittag-2.5"])
def test_counts_must_be_integers(call):
    # one rule, errors.check_count, refuses a count that is not an integer
    # before it reaches range() (a bare TypeError) or a cached table
    zero_table(0.0, 200)
    with pytest.raises(DomainError, match=r"must be an integer >= \d+, got (200|8|2)\.[05]$"):
        call()


def test_a_count_of_any_integral_type_is_kept_as_an_int():
    policy = TruncationPolicy(n_max=np.int64(200))
    assert policy == DEFAULT_POLICY and type(policy.n_max) is int


SERIES_CURVES = {
    "J": bessel_J_curve,
    "G": bessel_G_curve,
    "Phi": memory_phi_curve,
}


def _series_grid(kind, n):
    if kind == "linear":
        return np.linspace(1e-3, 2.0, n)
    ts = np.geomspace(1e-3, 2.0, n)
    if kind == "reversed":
        return ts[::-1].copy()
    if kind == "shuffled":
        return np.random.default_rng(n).permutation(ts)
    return ts


@pytest.mark.parametrize("kind", ["log", "linear", "reversed", "shuffled"])
@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 20000])
@pytest.mark.parametrize("fn", ["J", "G", "Phi"])
def test_chunked_series_match_one_shot_reference(fn, n, kind):
    # up to one 4096-time chunk the sum is the one-shot one, bit for bit;
    # longer requests drop only terms whose tail bound is below tol per chunk
    ts = _series_grid(kind, n)
    for nu in (-0.8, 0.0, 1.5):
        got = SERIES_CURVES[fn](nu, ts)
        expected = dirichlet_reference(fn, nu, ts)
        if n <= 4096:
            assert np.array_equal(got, expected)
        else:
            assert np.max(np.abs(got - expected)) <= 2.0 * DEFAULT_POLICY.tol


def test_table_exhausted_quotes_the_global_minimum():
    # reversed grid: the smallest time sits in the last of three chunks, and
    # earlier chunks already need more than the 20 zeros allowed
    ts = np.geomspace(1e-3, 2.0, 10_000)[::-1]
    policy = TruncationPolicy(n_max=20)
    tail = f"below tol = {policy.tol!r} at t = "
    expected = {
        "J": f"J series: 20 zeros cannot push the series tail {tail}{float(ts.min())!r}",
        "G": f"G series: 20 zeros cannot push the series tail {tail}{float(ts.min())!r}",
        "Phi": f"Phi series: 20 zeros cannot push the series tail {tail}{float(ts.min())!r}",
    }
    for fn, message in expected.items():
        with pytest.raises(TableExhaustedError) as err:
            SERIES_CURVES[fn](0.0, ts, policy)
        assert str(err.value) == message


def _on_the_full_table(monkeypatch, fn, nu, ts, policy=DEFAULT_POLICY):
    """fn summed with every zero table it asks for replaced by the n_max one."""
    with monkeypatch.context() as m:
        m.setattr(bessel_family, "zero_table", lambda order, n: zero_table(order, policy.n_max))
        return SERIES_CURVES[fn](nu, ts, policy)


def _tables_read(monkeypatch, fn, nu, ts, policy=DEFAULT_POLICY):
    """(fn on ts, or the TableExhaustedError it raises, and the (order, n) of
    every zero table it asked for)."""
    calls = []
    with monkeypatch.context() as m:
        m.setattr(bessel_family, "zero_table",
                  lambda order, n: calls.append((order, n)) or zero_table(order, n))
        try:
            return SERIES_CURVES[fn](nu, ts, policy), calls
        except TableExhaustedError as exc:
            return exc, calls


@pytest.mark.parametrize("fn", ["J", "G", "Phi"])
def test_series_on_a_prefix_equal_the_sum_on_the_full_table(monkeypatch, fn):
    # a series reads only its first n_use zeros, and a
    # prefix holds the first zeros of the full table bit for bit, so the
    # prefix its smallest time stops at gives the bits of the n_max table
    grids = [np.geomspace(1e-3, 50.0, 5000), np.linspace(1e-3, 50.0, 5000),
             np.geomspace(*FIGURE_GRID_LOG), [1e-3], [0.02], [0.5], [7.0]]
    low = TruncationPolicy(tol=1e-10, t_floor=1e-4)
    for nu in (-0.9, -0.5, 0.0, 0.37, 1.0, 3.0):
        for ts, policy in [(grid, DEFAULT_POLICY) for grid in grids] + [
                (np.geomspace(2e-4, 2.0, 300), low), ([2e-4], low)]:
            got, calls = _tables_read(monkeypatch, fn, nu, ts, policy)
            assert np.array_equal(got, _on_the_full_table(monkeypatch, fn, nu, ts, policy))
            # t >= 1e-3 reads at most 49 zeros: the search stops by 64
            assert policy is low or calls[-1][1] <= 64, calls


# the factor c of each series' tail bound c u^(1-power) exp(-u t), u = j_N^2
_TAIL_FACTOR = {"J": lambda nu: (nu + 1.0) / (nu + 3.0), "G": lambda nu: 1.0,
                "Phi": lambda nu: 1.0}


@pytest.mark.parametrize("tol", [1e-10, 1e-14])
@pytest.mark.parametrize("fn", ["J", "G", "Phi"])
def test_prefix_search_stops_at_the_smallest_table_that_suffices(monkeypatch, fn, tol):
    # a series asks for tables of 8, 16, 32, 48, ... zeros up to n_max and
    # stops at the first whose tail meets tol at t_min: the table before it
    # fails the tail test, and where none passes it is refused on n_max zeros
    policy = TruncationPolicy(tol=tol, n_max=400, t_floor=1e-5)
    sizes = [N_MIN] + list(range(16, 400, 16)) + [400]
    for nu in (-0.9, 0.0, 1.0, 3.0, 6.0):
        order = nu + 2.0 if fn == "J" else nu
        for t in np.geomspace(2e-5, 10.0, 25):
            got, calls = _tables_read(monkeypatch, fn, nu, [t], policy)
            need = truncation_reference(fn, nu, float(t), policy)
            assert [n for _, n in calls] == sizes[: len(calls)] and {o for o, _ in calls} == {order}
            *before, last = [n for _, n in calls]  # the count each table can reach
            if need is None:
                assert isinstance(got, TableExhaustedError) and last == 400
            else:
                assert not isinstance(got, Exception) and need <= last, (nu, t, calls)
                assert not before or need > before[-1], (nu, t, calls)


@pytest.mark.parametrize("ts,policy", [
    (np.geomspace(1e-3, 2.0, 1_000_000), DEFAULT_POLICY),
    (np.geomspace(2e-5, 2.0, 10_000), TruncationPolicy(n_max=400, t_floor=1e-5)),
], ids=["wide", "short-t-min"])
@pytest.mark.parametrize("fn", ["J", "G", "Phi"])
def test_scalar_tail_search_visits_each_index_once_at_t_min(fn, ts, policy):
    # one scalar search counts every chunk: it visits the distinct chunk
    # minima from the largest down, each resuming at the index where the one
    # before stopped (and a larger table at the end of the one before), so it
    # reads each index up to the count at t_min once, and each minimum's count
    # once more
    visits, tail = [], bessel_family._tail
    if fn == "Phi" and ts[0] < 2.5e-5:  # 400 zeros bound Phi's tail from t = 2.4e-5 at nu = 0.3
        ts = np.geomspace(2.5e-5, 2.0, len(ts))

    def counted(c, power, sq, i, t):
        visits.append((i, t))
        return tail(c, power, sq, i, t)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(bessel_family, "_tail", counted)
        SERIES_CURVES[fn](0.3, ts, policy)
    starts = np.arange(0, len(ts), bessel_family._CHUNK)
    minima = sorted(set(np.minimum.reduceat(ts, starts).tolist()), reverse=True)
    n_use = truncation_reference(fn, 0.3, minima[-1], policy)
    assert len(visits) <= n_use - N_MIN + 1 + len(minima)
    runs = [[i for i, t in visits if t == lo] for lo in minima]
    assert visits == [(i, lo) for lo, run in zip(minima, runs) for i in run]
    assert runs[0][0] == N_MIN - 1 and runs[-1][-1] == n_use - 1
    for before, run in zip([[N_MIN - 1]] + runs, runs):
        assert run == list(range(before[-1], before[-1] + len(run)))


@pytest.mark.parametrize("fn,reverse", [("G", False), ("J", False), ("J", True)])
def test_series_memory_is_bounded(fn, reverse):
    ts = np.geomspace(1e-3, 2.0, 1_000_000)
    if reverse:
        ts = ts[::-1].copy()
    SERIES_CURVES[fn](0.0, ts[:1])  # build the zero table outside the trace
    tracemalloc.start()
    try:
        SERIES_CURVES[fn](0.0, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a one-shot 49 x 1e6 outer product peaks near 780 MB; assembled in place,
    # G and J peak at their 8 MB result and one block (9.7 MB); J built its
    # result beside the 8 MB series it subtracts (16 MB) before it wrote into it
    assert peak <= 10e6


@pytest.mark.parametrize("nu", [-0.8, 0.0, 1.5, 6.0])
def test_J_in_place_keeps_the_bits_of_the_whole_array_formula(nu):
    # J = (A t + C) - 4(nu+1) S is written into the series buffer one chunk at
    # a time, with the operations and their order of the whole-array formula
    policy, rng = DEFAULT_POLICY, np.random.default_rng(7)
    grids = [0.7, rng.uniform(1e-3, 5.0, 1), rng.uniform(1e-3, 5.0, 4095),
             rng.uniform(1e-3, 5.0, 4097), rng.permutation(np.geomspace(1e-3, 50.0, 10_000)),
             rng.uniform(1e-2, 2.0, (3, 5000))]
    for ts in grids:
        series, _ = bessel_family._series(nu + 2.0, ts, policy, (nu + 1.0) / (nu + 3.0), 1, "J")
        series *= 4.0 * (nu + 1.0)
        out = 4.0 * (nu + 1.0) * (nu + 2.0) * np.asarray(ts, dtype=float)
        out += 2.0 * (nu + 2.0) / (nu + 3.0)
        out -= series
        got = bessel_family.bessel_J_curve(nu, ts)
        assert np.shape(got) == np.shape(out) and np.array_equal(got, out)


SERIES_KERNELS = dict(
    SERIES_CURVES,
    creep_primitive=bessel_family.bessel_creep_integral_curve,
    relax_primitive=bessel_family.bessel_relax_integral_curve,
)


def _cut_and_uncut(monkeypatch, fn, nu, ts):
    got = SERIES_KERNELS[fn](nu, ts)
    with monkeypatch.context() as m:
        m.setattr(bessel_family, "_dirichlet_sum", dirichlet_sum_uncut)
        return got, SERIES_KERNELS[fn](nu, ts)


def _cut_grids(fn, n):
    rng = np.random.default_rng(n)
    yield np.geomspace(1e-3, 50.0, n)
    yield np.linspace(1e-3, 50.0, n)
    yield np.linspace(1e-3, 50.0, n)[::-1]
    yield rng.uniform(1e-3, 50.0, n)
    if fn.endswith("primitive"):
        dt_grid = (50.0 / (n - 1)) * np.arange(n)  # a dt grid from T = 0
        yield dt_grid
        yield dt_grid[::-1]
        yield rng.permutation(dt_grid)


# 129, 4096 + 129 and 4096 + 2 leave small blocks at the end of a chunk
@pytest.mark.parametrize("n", [5, 129, 4096, 4097, 4098, 4225, 20000])
@pytest.mark.parametrize("fn", list(SERIES_KERNELS))
def test_sub_ulp_term_cut_is_bit_identical(monkeypatch, fn, n):
    # a block of two or more times sums its rows in table order, so a term
    # below 2^-55 of the first one is under half an ulp of every partial sum;
    # a one-time chunk is summed pairwise and is checked separately below
    exact = n - 1 if n % bessel_family._CHUNK == 1 else n
    for nu in (-0.8, 0.0, 1.5):
        for ts in _cut_grids(fn, n):
            got, uncut = _cut_and_uncut(monkeypatch, fn, nu, ts)
            assert np.array_equal(got[:exact], uncut[:exact])


def _merge_grids(fn):
    # equal-count blocks that cross chunk boundaries, and no one-time chunk;
    # on the narrow grid every chunk keeps the same count, so _RUN ends blocks
    yield np.geomspace(0.1, 10.0, 100_000)
    yield np.linspace(0.01, 0.0101, 50_000)
    t0 = 0.0 if fn.endswith("primitive") else DEFAULT_POLICY.t_floor
    yield t0 + 1e-3 * np.arange(50_000)


@pytest.mark.parametrize("fn", list(SERIES_KERNELS))
def test_merged_blocks_are_bit_identical(monkeypatch, fn):
    for nu in (-0.8, 0.0, 1.5):
        for ts in _merge_grids(fn):
            got, uncut = _cut_and_uncut(monkeypatch, fn, nu, ts)
            assert np.array_equal(got, uncut)


def _merged_and_unmerged_plans(monkeypatch, fn, nu, ts):
    plans, plan = [], bessel_family._block_plan

    def spy(*args):
        plans.append(plan(*args))
        return plans[-1]

    with monkeypatch.context() as m:
        m.setattr(bessel_family, "_block_plan", spy)
        SERIES_KERNELS[fn](nu, ts)
        m.setattr(bessel_family, "_RUN", 0)  # no block fits: the plan before merging
        SERIES_KERNELS[fn](nu, ts)
    return plans


@pytest.mark.parametrize("fn", list(SERIES_KERNELS))
def test_merged_blocks_join_equal_counts_up_to_the_run(monkeypatch, fn):
    def largest(plan):
        return max((b - a) * m for a, b, m in plan)

    for nu in (-0.8, 1.5):
        for ts in _merge_grids(fn):
            merged, unmerged = _merged_and_unmerged_plans(monkeypatch, fn, nu, ts)
            assert len(merged) < len(unmerged)
            assert largest(merged) <= max(bessel_family._RUN, largest(unmerged))
            # each merged block is a run of consecutive unmerged blocks of its count
            blocks = iter(merged)
            a, b, m = next(blocks)
            for x, y, k in unmerged:
                if x == b:
                    a, b, m = next(blocks)
                assert a <= x < y <= b and k == m
            assert b == len(ts) and next(blocks, None) is None


@pytest.mark.parametrize("n", [4097, 8193])
@pytest.mark.parametrize("fn", list(SERIES_KERNELS))
def test_one_time_chunk_is_not_merged(fn, n):
    # numpy sums a one-time block pairwise; merged, it would be summed in
    # table order like the block before it and could move by an ulp.  On a
    # narrow grid the last time keeps the count of the block before it.
    grids = [np.linspace(t, 1.01 * t, n) for t in np.geomspace(2e-3, 0.05, 8)]
    if fn.endswith("primitive"):
        grids.append(1e-5 * np.arange(n))
    for nu in (-0.8, 0.0, 1.5):
        for ts in grids:
            assert SERIES_KERNELS[fn](nu, ts)[-1] == SERIES_KERNELS[fn](nu, ts[-1:])[0]


def test_dt_grid_primitive_memory_is_bounded():
    # every hereditary simulation reads a primitive on k dt from T = 0; only
    # the 64-time block at T = 0 sums the whole 200-zero table
    T = 1e-3 * np.arange(16_000)
    bessel_family.bessel_relax_integral_curve(0.0, T[:2])  # table outside the trace
    tracemalloc.start()
    try:
        bessel_family.bessel_relax_integral_curve(0.0, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one cut per 4096-time chunk holds a 200 x 4096 block, 6.6 MB
    assert peak < 1e6


def test_sub_ulp_term_cut_moves_single_times_by_at_most_4_ulp():
    # numpy sums a one-time chunk pairwise, so dropping terms regroups it; the
    # bound is on the Dirichlet sum itself (the relaxation primitive subtracts
    # it from its limit and can magnify the ulp count of the difference)
    for nu in (-0.8, 0.0, 1.5):
        for order in (nu, nu + 2.0):
            sq = zero_table(order, DEFAULT_POLICY.n_max).squares
            for power, n in itertools.product((0, 1, 2), (8, 49, len(sq))):
                for t in np.geomspace(1e-3, 50.0, 200):
                    got = bessel_family._dirichlet_sum(sq[:n], [t], power)[0]
                    uncut = dirichlet_sum_uncut(sq[:n], [t], power)[0]
                    assert abs(got - uncut) <= 4.0 * np.spacing(uncut)


# kernel name -> (the reference's series name, power of 1/j^2 in its terms)
_PLANNED = {"J": ("J", 1), "G": ("G", 1), "Phi": ("Phi", 0),
            "creep_primitive": ("creep", 2), "relax_primitive": ("relax", 2)}


@st.composite
def _plan_grids(draw):
    # lengths 0, 1, 64 and 4095 past a multiple of the 4096-time chunk (no
    # short last chunk, a one-time one, short ones); times sorted, reversed,
    # shuffled, with duplicates, and k dt from T = 0 (primitives only)
    n = draw(st.sampled_from([0, 1, 64, 4095])) + bessel_family._CHUNK * draw(st.integers(0, 3))
    n = max(n, 2)
    t0 = draw(st.sampled_from([1e-3, 3e-3, 0.02, 0.1, 1.0])) * draw(st.floats(1.0, 1.5))
    t1 = t0 * draw(st.sampled_from([1.001, 1.1, 10.0, 1e3, 1e4]))
    kind = draw(st.sampled_from(["sorted", "reversed", "shuffled", "duplicates", "from_zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ts = (np.geomspace if draw(st.booleans()) else np.linspace)(t0, t1, n)
    if kind == "reversed":
        ts = ts[::-1].copy()
    elif kind == "shuffled":
        ts = rng.permutation(ts)
    elif kind == "duplicates":
        ts = np.sort(rng.choice(ts[: max(2, n // 8)], size=n))
    elif kind == "from_zero":
        ts = (t1 / (n - 1)) * np.arange(n)
        ts = rng.permutation(ts) if draw(st.booleans()) else ts
    return kind, ts


@settings(max_examples=40)
@given(grid=_plan_grids(), nu=st.sampled_from([-0.8, 0.0, 0.3, 1.5]))
def test_block_plan_from_arrays_matches_the_chunk_by_chunk_plan(grid, nu):
    # the plan equals the reference's at the same cut, every kernel keeps
    # the bits that reference plan gives, and the bits of the 2^-60 cut (the
    # parent kernel) wherever no one-time chunk is summed pairwise
    kind, ts = grid
    exact = len(ts) - 1 if len(ts) % bessel_family._CHUNK == 1 else len(ts)
    for fn, (name, power) in _PLANNED.items():
        if kind == "from_zero" and power != 2:
            continue
        plans, plan = [], bessel_family._block_plan
        with pytest.MonkeyPatch.context() as m:
            m.setattr(bessel_family, "_block_plan", lambda *a: plans.append(plan(*a)) or plans[-1])
            got = SERIES_KERNELS[fn](nu, ts)
        assert plans == [series_plan_reference(name, nu, ts, bessel_family._SUB_ULP)]
        for cut, upto in ((bessel_family._SUB_ULP, len(ts)), (SUB_ULP_CUT_BEFORE, exact)):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(bessel_family, "_SUB_ULP", cut)  # the primitives' closed-form tail too
                m.setattr(bessel_family, "_dirichlet_sum", lambda sq, t, p, *_: (
                    planned_dirichlet_sum(sq, t, p, series_plan_reference(name, nu, t, cut))))
                reference = SERIES_KERNELS[fn](nu, ts)
            assert np.array_equal(got[:upto], reference[:upto]), (fn, cut)


@pytest.mark.parametrize("fn", ["J", "G", "Phi"])
def test_counts_at_near_tie_chunk_minima_equal_the_reference_search(fn):
    # chunk minima where a tail lies within an ulp of tol (times where the
    # count steps up: each edge ln(c / tol) / u, u = j_n^2, for J and G, and
    # ln(u / tol) / u for Phi, whose bound is also finite only from t = 1 / u)
    # and both float neighbours of each, at or above t_floor, count as the
    # independent search at each minimum does
    nu, policy = 0.3, TruncationPolicy(t_floor=1e-4)
    sq = zero_table(nu + 2.0 if fn == "J" else nu, policy.n_max).squares[N_MIN - 1 : 60]
    if fn == "Phi":
        edges = [math.log(u / policy.tol) / u for u in sq] + [1.0 / u for u in sq]
    else:
        edges = [math.log(_TAIL_FACTOR[fn](nu) / policy.tol) / u for u in sq]
    minima = [np.nextafter(t, d) for t in edges for d in (0.0, np.inf)] + edges
    minima = [t for t in minima if t >= policy.t_floor]
    ts = np.concatenate([t * np.linspace(1.0, 1.5, bessel_family._CHUNK) for t in minima])
    plans, plan = [], bessel_family._block_plan
    with pytest.MonkeyPatch.context() as m:
        m.setattr(bessel_family, "_block_plan", lambda *a: plans.append(plan(*a)) or plans[-1])
        SERIES_CURVES[fn](nu, ts, policy)
    assert plans == [series_plan_reference(fn, nu, ts, bessel_family._SUB_ULP, policy)]


@pytest.mark.parametrize("fn", ["J", "G", "Phi"])
def test_an_empty_grid_searches_nothing(fn):
    # no chunk, no count: an empty grid is not refused; and 8 zeros bound
    # every tail at t = 1, so there the sum is the one on the full table
    policy = TruncationPolicy(n_max=8, t_floor=1e-5)
    for ts in ([], np.empty((0, 3))):
        got = SERIES_CURVES[fn](0.0, ts, policy)
        assert isinstance(got, np.ndarray) and got.shape == np.shape(ts)
    full = TruncationPolicy(t_floor=1e-5)
    assert SERIES_CURVES[fn](0.0, [1.0], policy)[0] == SERIES_CURVES[fn](0.0, [1.0], full)[0]


_SWEEP_NUS = (-0.9, -0.5, 0.0, 1.0, 3.0, 6.0)


@pytest.mark.parametrize("nu", _SWEEP_NUS)
def test_phi_is_within_tol_of_a_series_on_1200_scipy_zeros(nu):
    # the independent reference for Phi: each time on its own, so each keeps
    # the count of its own tail bound
    ts = np.geomspace(1e-3, 10.0, 40)
    got = np.array([memory_phi_curve(nu, [t])[0] for t in ts])
    assert np.max(np.abs(got - scipy_series("Phi", nu, ts, 1200))) <= DEFAULT_POLICY.tol


@pytest.mark.parametrize("fn,power", [("J", 1), ("G", 1), ("Phi", 0)])
def test_tail_bound_holds_past_every_count(fn, power):
    # 4(nu+1) times the tail past N of a 1200-zero scipy series, against
    # _tail at N, wherever its bound is finite (u t >= 1 - power).  The times
    # reach below 1 / j_200^2, where Phi's bound is inf at every N; where it is
    # finite, j_1200^2 t > 36, so the terms past zero 1200 do not matter (for
    # J and G at t near 1e-6 they do, which only weakens the test there)
    worst = 0.0
    for nu in _SWEEP_NUS:
        order = nu + 2.0 if fn == "J" else nu
        sq = zero_table(order, DEFAULT_POLICY.n_max).squares
        ref = np.array(scipy_bessel_zeros(order, 1200)) ** 2
        for t in np.geomspace(1e-6, 10.0, 22):
            terms = 4.0 * (nu + 1.0) * np.exp(-ref * t) / ref**power
            for n in range(N_MIN, len(sq), 7):
                bound = bessel_family._tail(_TAIL_FACTOR[fn](nu), power, sq, n - 1, t)
                if math.isfinite(bound) and bound > 0.0:
                    worst = max(worst, math.fsum(terms[n:]) / bound)
    assert worst <= 1.0


@settings(max_examples=300)
@given(order=st.sampled_from([-0.9, 0.0, 1.0, 3.0, 8.0]), power=st.sampled_from([0, 1]),
       i=st.integers(0, 199), scale=st.floats(0.01, 100.0), growth=st.floats(1.0, 100.0))
def test_tail_never_rises_as_t_grows(order, power, i, scale, growth):
    # the walk resumes each smaller chunk minimum where the larger one
    # stopped, so no bound may rise with t; t starts either side of u t = 1
    sq = zero_table(order, 200).squares
    t = scale / sq[i]
    assert bessel_family._tail(1.0, power, sq, i, t * growth) <= bessel_family._tail(
        1.0, power, sq, i, t)


def test_phi_far_below_the_floor_is_a_table_exhaustion():
    # below 1 / j_200^2 Phi's bound is inf at every index, so the table runs
    # out: a refusal at any t > 0, with no division to overflow or fail
    policy = TruncationPolicy(t_floor=1e-300)
    for t in (1e-18, 1e-19, 1e-100, 1e-300):
        with pytest.raises(TableExhaustedError, match="^Phi series: 200 zeros cannot push"):
            memory_phi_curve(0.0, [t], policy)


def test_bessel_J_and_creep_primitive_refuse_overflow_at_the_largest_time():
    # J grows like 4(nu+1)(nu+2) t and the creep primitive like T^2: each
    # returned inf with RuntimeWarnings (and a simulation on it nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^bessel\[nu=0\]: J overflows at t = 3e\+307$"):
            bessel_J_curve(0.0, [1.0, 3e307, 2.0])
        with pytest.raises(DomainError, match=r"^bessel\[nu=0\.5\]: creep primitive overflows "
                                               r"at t = 2e\+160$"):
            creep_integral_curve(ModelParams("bessel", nu=0.5), np.array([0.0, 2e160, 1e160]))
        # just below the overflow both are finite, and G and Phi decay to 0
        assert bessel_J_curve(0.0, [1e307])[0] == 8e307
        assert np.isfinite(creep_integral_curve(ModelParams("bessel", nu=0.5), [1e150])).all()
        for curve in (bessel_G_curve, memory_phi_curve):
            assert curve(0.0, [1.0, 1e308]).tolist()[1] == 0.0
        assert bessel_family.bessel_relax_integral_curve(0.0, [1e308])[0] == 0.125  # 4 / 32


def test_fluid_long_time_behavior():
    # equilibrium modulus 0, equilibrium compliance unbounded
    g_values = [bessel_G_time(0.0, t) for t in (1.0, 5.0, 20.0, 50.0)]
    assert all(b < a for a, b in zip(g_values, g_values[1:]))
    assert g_values[-1] < 1e-100
    j_values = [bessel_J_time(0.0, t) for t in (1.0, 10.0, 100.0)]
    assert all(b > a for a, b in zip(j_values, j_values[1:]))
    assert j_values[-1] > 400.0


# ---------------------------------------------------------------------------
# Fractional Maxwell and asymptotic families
# ---------------------------------------------------------------------------


def _fmax(a1, b1):
    return ModelParams("fmax", a1=a1, b1=b1)


def test_fmax_glass_compliance():
    for a1, b1 in ((1.0, 1.0), (2.0, 0.5), (0.3, 4.0)):
        assert eval_J_curve(_fmax(a1, b1), 0.0) == pytest.approx(a1 / b1, rel=1e-15)


def test_fmax_relaxation_value_from_erfc_oracle():
    expected = 2.0 * math.e * erfc_quadrature(1.0)
    assert expected == pytest.approx(0.85516715231161400, rel=1e-11)
    assert eval_G_curve(_fmax(1.0, 2.0), 1.0) == pytest.approx(expected, abs=1e-9)


def test_fmax_creep_direct_substitution():
    assert eval_J_curve(_fmax(1.0, 1.0), math.pi / 4.0) == pytest.approx(2.0, rel=1e-14)


def test_asym_glass_values():
    for nu in (-0.9, 0.0, 3.0):
        assert asym_J_time(nu, 0.0) == 1.0
        assert asym_G_time(nu, 0.0) == 1.0


def test_asym_creep_direct_substitution():
    assert asym_J_time(0.0, math.pi / 16.0) == pytest.approx(2.0, rel=1e-14)


def test_asym_creep_reference_point():
    assert asym_J_time(0.0, 1.0) == pytest.approx(1.0 + 4.0 / math.sqrt(math.pi), abs=1e-12)


@pytest.mark.parametrize("nu", [-0.8, -0.5, 0.0, 0.5, 1.0, 2.0])
def test_family_equivalence_asym_is_reparametrized_fmax(nu):
    c = 1.0 / (2.0 * (nu + 1.0))
    for t in (0.0, 0.01, 0.5, 1.0, 3.0):
        assert asym_J_time(nu, t) == pytest.approx(eval_J_curve(_fmax(c, c), t), rel=1e-14)
        assert asym_G_time(nu, t) == pytest.approx(eval_G_curve(_fmax(c, c), t), rel=1e-14)


CLOSED_FORM_DISPATCH = {"J": eval_J_curve, "G": eval_G_curve,
                        "creep": creep_integral_curve, "relax": relax_integral_curve}
# orders across (-1, 3], and one beyond; fmax coefficients across [0.01, 100]
CLOSED_FORM_PARAMS = [ModelParams("asymptotic", nu=nu) for nu in
                      FIGURE_ASYM_NUS + (-0.999, -0.95, -0.5, 1.0, 1.75, 2.5, 3.0, 3.7)]
CLOSED_FORM_PARAMS += [_fmax(a1, b1) for a1, b1 in
                       ((1.0, 1.0), (0.07, 2.5), (3.3, 0.4), (0.01, 100.0), (100.0, 0.01))]


def _closed_form_grids(seed):
    rng = np.random.default_rng(seed)
    lo, hi = sorted(rng.uniform(-9.0, 1.7, 2))
    return {
        "figure": np.linspace(*FIGURE_GRID_LIN),
        "log": np.geomspace(10.0**lo, 10.0**hi, 3000),
        "linear": np.linspace(0.0, rng.uniform(0.5, 50.0), 5202),
        "random": np.sort(rng.uniform(0.0, 30.0, 2000)),
    }


def _assert_matches_reference(params, got, ref):
    """Bit for bit where the law's (lam, g) is exact: the asymptotic family
    and fmax at a1 = b1 = 1.  Elsewhere 1/a1 and a1/b1 round, which moves a
    value a few ulp, and G up to ~1.4e-13 where sqrt(t)/a1 sits at erfcx's
    series/continued-fraction switch."""
    if params.family == "asymptotic" or (params.a1, params.b1) == (1.0, 1.0):
        assert np.array_equal(got, ref)
    else:
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("fn", sorted(CLOSED_FORM_DISPATCH))
@pytest.mark.parametrize("seed", range(len(CLOSED_FORM_PARAMS)),
                         ids=[p.label() for p in CLOSED_FORM_PARAMS])
def test_closed_forms_match_per_point_reference(seed, fn):
    params = CLOSED_FORM_PARAMS[seed]
    for name, ts in _closed_form_grids(seed).items():
        got = CLOSED_FORM_DISPATCH[fn](params, ts)
        _assert_matches_reference(params, got, closed_form_reference(fn, params, ts))
    # a scalar time gives the float the array holds
    scalar = CLOSED_FORM_DISPATCH[fn](params, 0.37)
    assert type(scalar) is float
    assert scalar == CLOSED_FORM_DISPATCH[fn](params, np.array([0.37]))[0]
    _assert_matches_reference(params, scalar, closed_form_reference(fn, params, [0.37])[0])


CLOSED_FORM_TIME_FNS = [lambda t: asym_J_time(0.5, t), lambda t: asym_G_time(0.5, t)] + [
    lambda t, fn=fn, params=params: fn(params, t)
    for params in (ModelParams("asymptotic", nu=0.5), _fmax(1.0, 2.0))
    for fn in CLOSED_FORM_DISPATCH.values()
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-3])
@pytest.mark.parametrize("k", range(len(CLOSED_FORM_TIME_FNS)))
def test_closed_forms_quote_first_bad_time(k, bad):
    with pytest.raises(DomainError) as err:
        CLOSED_FORM_TIME_FNS[k](np.array([0.0, 0.5, bad, -2.0, math.nan]))
    assert str(err.value) == f"time must be finite and >= 0, got {bad!r}"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-3])
@pytest.mark.parametrize("family", FAMILIES)
def test_primitives_of_every_family_quote_the_first_bad_bound(family, bad):
    # one time rule (errors.check_times); the Bessel primitives quoted no value
    params = _fmax(1.0, 2.0) if family == "fmax" else ModelParams(family, nu=0.5)
    for fn in (creep_integral_curve, relax_integral_curve):
        with pytest.raises(DomainError) as err:
            fn(params, np.array([0.0, 0.5, bad, -2.0, math.nan]))
        assert str(err.value) == f"time must be finite and >= 0, got {bad!r}"


@pytest.mark.parametrize("fn", [eval_J_curve, eval_G_curve])
def test_bessel_series_quote_a_non_finite_time(fn):
    with pytest.raises(DomainError, match=r"^series evaluation requires finite times, got inf$"):
        fn(ModelParams("bessel", nu=0.0), np.array([0.5, -1.0, math.inf, math.nan]))


def _asym_memory(nu, t):
    params = ModelParams("asymptotic", nu=nu)
    return relaxation_memory(*LAWS["asymptotic"](params), t)


def test_memory_and_mittag_quote_first_bad_argument():
    with pytest.raises(DomainError) as err:
        _asym_memory(0.0, np.array([0.5, 0.0, math.nan]))
    assert str(err.value) == "memory function needs t > 0, got 0.0"
    assert _asym_memory(0.0, np.array([0.5, 2.0])).tolist() == [
        _asym_memory(0.0, 0.5), _asym_memory(0.0, 2.0)]
    with pytest.raises(DomainError, match=r"requires finite z, got nan"):
        mittag_leffler_half(np.array([-1.0, math.nan, 0.5]))
    with pytest.raises(DomainError, match=r"restricted to z <= 0 \(got 0\.5\)"):
        mittag_leffler_half(np.array([-1.0, 0.5, math.nan]))


@pytest.mark.parametrize(
    "params",
    [ModelParams("bessel", nu=0.0), ModelParams("asymptotic", nu=0.0),
     ModelParams("fmax", a1=1.0, b1=2.0)],
    ids=lambda p: p.family,
)
def test_empty_time_arrays_give_empty_curves(params):
    for fn in CLOSED_FORM_DISPATCH.values():
        for ts in ([], np.zeros(0)):
            out = fn(params, ts)
            assert isinstance(out, np.ndarray) and out.dtype == float and out.shape == (0,)
    if params.family == "bessel":
        assert memory_phi_curve(params.nu, []).shape == (0,)


# ---------------------------------------------------------------------------
# Monotonicity and curve containers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "params",
    [
        ModelParams("bessel", nu=-0.5),
        ModelParams("bessel", nu=1.0),
        ModelParams("asymptotic", nu=0.5),
        ModelParams("fmax", a1=1.0, b1=2.0),
    ],
    ids=lambda p: p.label(),
)
def test_curve_monotonicity(params):
    ts = np.geomspace(1e-3, 2.0, 80)
    j = eval_J_curve(params, ts)
    g = eval_G_curve(params, ts)
    assert np.all(np.diff(j) >= -1e-12)
    assert np.all(np.diff(g) <= 1e-12)


# ---------------------------------------------------------------------------
# Kernel primitives vs quadrature oracle
# ---------------------------------------------------------------------------


def test_creep_primitive_vs_quadrature():
    for params in (
        ModelParams("fmax", a1=1.0, b1=1.0),
        ModelParams("asymptotic", nu=0.5),
    ):
        for T in (0.2, 1.0):
            oracle, err = quad(lambda u: eval_J_curve(params, [u])[0], 0.0, T)
            assert err < 1e-9
            assert creep_integral_curve(params, [T])[0] == pytest.approx(oracle, rel=1e-9)


def test_relax_primitive_vs_quadrature():
    p = ModelParams("fmax", a1=1.0, b1=1.0)
    for T in (0.2, 1.0):
        oracle, err = quad(lambda u: eval_G_curve(p, [u])[0], 0.0, T)
        assert err < 1e-9
        assert relax_integral_curve(p, [T])[0] == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("n_max", [50, 200])
@pytest.mark.parametrize("nu", [-0.9, -0.5, 0.0, 0.37, 1.5, 4.0])
def test_bessel_primitives_start_at_exactly_zero(nu, n_max):
    # the terms past the table sum to the rest of sigma_2 at T = 0, so a load
    # built from a primitive starts at rest, single times and grids alike
    policy = TruncationPolicy(n_max=n_max)
    for fn in (bessel_family.bessel_creep_integral_curve,
               bessel_family.bessel_relax_integral_curve):
        assert np.all(fn(nu, [0.0], policy) == 0.0)
        assert np.all(fn(nu, 1e-4 * np.arange(300), policy)[:1] == 0.0)


def test_bessel_primitives_vs_quadrature():
    # A 200-entry table resolves the series down to ~1e-4; the remaining head
    # of the integral comes from the two-term short-time expansion,
    # int_0^d (1 +- A sqrt(t) + B t) dt with error O(d^{5/2}) ~ 1e-10.
    delta = 1e-4
    a = 4.0 / math.sqrt(math.pi)
    policy = TruncationPolicy(t_floor=delta, n_max=200)
    for T in (0.5, 1.5):
        head = delta + (2.0 * a / 3.0) * delta**1.5 + 0.5 * 3.0 * delta**2
        body, err = quad(lambda u: bessel_J_time(0.0, u, policy), delta, T, limit=200)
        assert err < 1e-7  # quadpack's estimate is conservative near the sqrt corner
        assert bessel_family.bessel_creep_integral_curve(0.0, [T])[0] == pytest.approx(
            head + body, abs=5e-7)
        head = delta - (2.0 * a / 3.0) * delta**1.5 + 0.5 * 1.0 * delta**2
        body, err = quad(lambda u: bessel_G_time(0.0, u, policy), delta, T, limit=200)
        assert err < 1e-7
        assert bessel_family.bessel_relax_integral_curve(0.0, [T])[0] == pytest.approx(
            head + body, abs=5e-7)


def test_short_time_expansions_match_series():
    # two-term Tauberian forms vs a deep series evaluation at t = 1e-4
    deep = TruncationPolicy(tol=1e-12, n_max=1500, t_floor=1e-6)
    for nu in (-0.5, 0.0, 1.0):
        t = 1e-4
        assert bessel_J_two_term(nu, t) == pytest.approx(
            bessel_J_time(nu, t, deep), abs=2e-5
        )
        assert bessel_G_two_term(nu, t) == pytest.approx(
            bessel_G_time(nu, t, deep), abs=2e-5
        )


@pytest.mark.parametrize("nu", [5.5, 6.0])
def test_family_at_its_nu_bound_matches_a_series_on_scipy_zeros(nu):
    # J reads zeros of order nu + 2: right up to nu = 6.2 (order 8.2), off by
    # 1.4e-3 at nu = 6.25
    ts = [1e-3, 1e-2, 0.1, 1.0]
    for fn, curve in (("J", bessel_J_curve), ("G", bessel_G_curve)):
        assert np.max(np.abs(curve(nu, ts) - scipy_series(fn, nu, ts))) < 1e-10


def test_bessel_family_refuses_nu_above_6_and_the_asymptotic_family_does_not():
    for call in (lambda nu: ModelParams("bessel", nu=nu),
                 lambda nu: bessel_J_curve(nu, [0.5]), lambda nu: bessel_G_curve(nu, [0.5]),
                 lambda nu: memory_phi_curve(nu, [0.5]),
                 lambda nu: bessel_family.bessel_creep_integral_curve(nu, [0.5]),
                 lambda nu: bessel_family.bessel_relax_integral_curve(nu, [0.5])):
        call(6.0)
        with pytest.raises(DomainError, match=r"the Bessel family takes nu <= 6, got 6\.05"):
            call(6.05)
    assert eval_J_curve(ModelParams("asymptotic", nu=50.0), [0.5])[0] > 1.0
