import io
import math
import tracemalloc
import warnings
from collections import OrderedDict

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import (
    bessel_primitive,
    bessel_sine_strain_response,
    convolution_reference,
    erfc_quadrature,
    stepping_reference,
)
from viscobessel import fracsim
from viscobessel.csvout import write_csv
from viscobessel.errors import DomainError, GridError, SeriesRefusalError
from viscobessel.fracsim import (
    InterconversionReport,
    LoadHistory,
    ResponseHistory,
    convolve_response,
    interconversion_check,
    read_load_history,
    simulate_asymptotic,
    step_response,
    write_history,
)
from viscobessel.models import (
    ModelParams,
    TruncationPolicy,
    asym_G_time,
    asym_J_time,
    bessel_G_time,
    eval_J_curve,
)
from viscobessel.models.evaluate import FAMILY_TABLE


def _step(kind, dt, t_end, value=1.0):
    n = round(t_end / dt) + 1
    return LoadHistory(kind, dt, tuple([value] * n))


# ---------------------------------------------------------------------------
# Caputo stepping of the asymptotic constitutive law
# ---------------------------------------------------------------------------


def test_step_strain_relaxes_to_closed_form():
    r = simulate_asymptotic(0.0, _step("strain", 1e-3, 1.0))
    expected = asym_G_time(0.0, 1.0)
    assert expected == pytest.approx(math.exp(4.0) * erfc_quadrature(2.0), rel=1e-10)
    assert expected == pytest.approx(0.25539568, abs=1e-8)
    assert r.kind == "stress"
    assert r.samples[-1] == pytest.approx(expected, abs=5e-3)


def test_step_stress_creeps_to_closed_form():
    r = simulate_asymptotic(0.0, _step("stress", 1e-3, 1.0))
    expected = asym_J_time(0.0, 1.0)  # 1 + 4/sqrt(pi)
    assert r.kind == "strain"
    assert r.samples[-1] == pytest.approx(expected, abs=5e-3)


def test_zero_input_zero_response():
    r = simulate_asymptotic(0.7, LoadHistory("strain", 1e-2, tuple([0.0] * 50)))
    assert max(abs(v) for v in r.samples) == 0.0


def test_stepping_grid_convergence_order_at_least_one():
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        r = simulate_asymptotic(0.0, _step("strain", dt, 1.0))
        errs.append(abs(r.samples[-1] - asym_G_time(0.0, 1.0)))
    assert errs[0] / errs[1] >= 2.0
    assert errs[1] / errs[2] >= 2.0


def test_stepping_linearity():
    rng = np.random.default_rng(7)
    u = rng.normal(size=120)
    base = np.array(simulate_asymptotic(0.3, LoadHistory("strain", 5e-3, tuple(u))).samples)
    scaled = np.array(
        simulate_asymptotic(0.3, LoadHistory("strain", 5e-3, tuple(2.5 * u))).samples
    )
    assert np.max(np.abs(scaled - 2.5 * base)) < 1e-8


# ---------------------------------------------------------------------------
# Hereditary convolution
# ---------------------------------------------------------------------------


def test_convolution_step_stress_matches_creep():
    p = ModelParams("asymptotic", nu=0.0)
    r = convolve_response(p, _step("stress", 1e-3, 1.0))
    assert r.samples[-1] == pytest.approx(asym_J_time(0.0, 1.0), abs=1e-3)


def test_convolution_step_strain_bessel_matches_relaxation():
    p = ModelParams("bessel", nu=0.0)
    r = convolve_response(p, _step("strain", 1e-3, 2.0))
    ts = 1e-3 * np.arange(len(r.samples))
    for k in (100, 1000, 2000):
        assert r.samples[k] == pytest.approx(bessel_G_time(0.0, float(ts[k])), abs=1e-3)


def test_convolution_ramp_stress_vs_quadrature_oracle():
    # eps(t) = int_0^t J(u) du for a unit ramp (sigma = t) on the fmax family
    p = ModelParams("fmax", a1=1.0, b1=1.0)
    dt = 1e-3
    n = 1001
    load = LoadHistory("stress", dt, tuple(dt * np.arange(n)))
    r = convolve_response(p, load)
    oracle, err = quad(lambda u: eval_J_curve(p, u), 0.0, 1.0)
    assert err < 1e-10
    assert r.samples[-1] == pytest.approx(oracle, abs=1e-3)


def test_convolution_linearity_and_causality():
    p = ModelParams("fmax", a1=2.0, b1=1.5)
    rng = np.random.default_rng(42)
    u1, u2 = rng.normal(size=150), rng.normal(size=150)
    r1 = np.array(convolve_response(p, LoadHistory("stress", 2e-3, tuple(u1))).samples)
    r2 = np.array(convolve_response(p, LoadHistory("stress", 2e-3, tuple(u2))).samples)
    rc = np.array(
        convolve_response(p, LoadHistory("stress", 2e-3, tuple(2.0 * u1 - 3.0 * u2))).samples
    )
    assert np.max(np.abs(rc - (2.0 * r1 - 3.0 * r2))) < 1e-10
    # causality: editing the future leaves the past untouched
    u3 = u1.copy()
    u3[100:] += 5.0
    r3 = np.array(convolve_response(p, LoadHistory("stress", 2e-3, tuple(u3))).samples)
    assert np.array_equal(r3[:100], r1[:100])


def test_convolution_smooth_load_grid_convergence_order_two():
    p = ModelParams("fmax", a1=1.0, b1=1.0)

    def value(dt, policy=None):
        n = round(1.0 / dt) + 1
        ts = dt * np.arange(n)
        load = LoadHistory("stress", dt, tuple(np.sin(ts)))
        return convolve_response(p, load, policy).samples[-1]

    ref = value(1.25e-4)
    errs = [abs(value(dt) - ref) for dt in (4e-3, 2e-3, 1e-3)]
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_cross_path_agreement():
    nu = 0.3
    p = ModelParams("asymptotic", nu=nu)
    dt = 1e-3
    ts = dt * np.arange(1001)
    load = LoadHistory("strain", dt, tuple(np.sin(ts)))
    stepping = np.array(simulate_asymptotic(nu, load).samples)
    convolved = np.array(convolve_response(p, load).samples)
    assert np.max(np.abs(stepping - convolved)) < 5e-4


@pytest.mark.parametrize("kind", ["stress", "strain"])
@pytest.mark.parametrize("a1,b1", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.7)])
def test_fmax_cross_path_agreement(a1, b1, kind):
    # the fmax convolution checked by an independent route, at the asymptotic
    # family's tolerance; relative to the response, which g = a1/b1 scales
    p = ModelParams("fmax", a1=a1, b1=b1)
    dt = 1e-3
    ts = dt * np.arange(1001)
    load = LoadHistory(kind, dt, np.sin(3.0 * ts) + ts / 2.0)
    stepping = step_response(p, load).samples
    convolved = convolve_response(p, load).samples
    assert np.max(np.abs(stepping - convolved)) < 5e-4 * np.max(np.abs(convolved))


def test_convolution_refuses_subfloor_grid_for_bessel():
    p = ModelParams("bessel", nu=0.0)
    with pytest.raises(SeriesRefusalError):
        convolve_response(p, _step("stress", 1e-4, 0.01))


@pytest.mark.parametrize("dt", [1e-3, 1e-4, 1e-5])
def test_bessel_convolution_from_rest_runs_below_the_floor(dt):
    # A load at rest reads only the primitive, which has no floor, so dt
    # below t_floor = 1e-3 runs.  Against the per-mode response the
    # error is the rule's second-order term, 0.68 dt^2 for this load (6.7e-7,
    # 6.8e-9 and 6.8e-11); the bound leaves it 1.5x headroom.
    n = round(1.0 / dt) + 1
    ts = dt * np.arange(n)
    load = LoadHistory("strain", dt, np.sin(3.0 * ts))
    got = convolve_response(ModelParams("bessel", nu=0.0), load).samples
    idx = np.unique(np.r_[1, 2, 3, np.linspace(0, n - 1, 201).round().astype(int)])
    ref = bessel_sine_strain_response(0, 3.0, ts[idx])
    assert np.max(np.abs(got[idx] - ref)) <= dt * dt


@pytest.mark.parametrize("dt", [1e-3, 1e-5, 1e-6])
@pytest.mark.parametrize("kind", ["stress", "strain"])
def test_bessel_step_from_rest_first_panels(kind, dt):
    # Samples (0, 1, 1, ...) ramp the load over the first panel and hold it,
    # and the rule is exact for them: out_k = (P(k dt) - P((k-1) dt)) / dt, so
    # an error in the primitive P shows divided by dt.  Its modes past the
    # 200-zero table are within ~4e-15 (measured: 9e-14 at dt = 1e-3, 8e-11
    # at 1e-5, 3e-9 at 1e-6); left out, they put 1.7e-9 / dt into out_1.
    n = 40
    f = np.ones(n)
    f[0] = 0.0
    got = convolve_response(ModelParams("bessel", nu=0.0), LoadHistory(kind, dt, f)).samples
    exact = np.diff(bessel_primitive(0, kind, dt * np.arange(n), n_zeros=4000)) / dt
    assert got[0] == 0.0
    assert np.max(np.abs(got[1:] - exact)) <= 1e-14 / dt


@pytest.mark.parametrize("kind", ["stress", "strain"])
@pytest.mark.parametrize(
    "params",
    [ModelParams("bessel", nu=0.0), ModelParams("asymptotic", nu=0.5),
     ModelParams("fmax", a1=2.0, b1=1.5)],
    ids=lambda p: p.family,
)
def test_convolution_from_rest_never_reads_the_kernel(params, kind, monkeypatch):
    # the column is built from the primitive alone; J or G enters only the
    # step term of a nonzero first sample
    dt = 2e-3
    ts = dt * np.arange(500)
    at_rest = LoadHistory(kind, dt, np.sin(5.0 * ts))
    expected = convolve_response(params, at_rest).samples
    family = FAMILY_TABLE[params.family]

    def unread(p, ts, policy):
        raise AssertionError("kernel evaluated")

    monkeypatch.setitem(FAMILY_TABLE, params.family, family._replace(J=unread, G=unread))
    assert np.array_equal(convolve_response(params, at_rest).samples, expected)
    with pytest.raises(AssertionError, match="kernel evaluated"):
        convolve_response(params, LoadHistory(kind, dt, np.cos(5.0 * ts)))


def test_interconversion_reads_only_the_primitives(monkeypatch):
    # every primitive is 0 at T = 0, so both loads start at rest
    family = FAMILY_TABLE["bessel"]

    def unread(p, ts, policy):
        raise AssertionError("kernel evaluated")

    monkeypatch.setitem(FAMILY_TABLE, "bessel", family._replace(J=unread, G=unread))
    assert interconversion_check(ModelParams("bessel", nu=0.0), [0.1, 0.5], 200).max_error < 1e-4


# ---------------------------------------------------------------------------
# Blocked-FFT Toeplitz evaluation against the per-step loops
# ---------------------------------------------------------------------------


_STEPPED = [ModelParams("asymptotic", nu=nu) for nu in (-0.8, 0.0, 1.5)] + [
    ModelParams("fmax", a1=a1, b1=b1) for a1, b1 in ((2.0, 1.5), (0.5, 2.0), (0.03, 40.0))
]
_SIMULATORS = [("stepping", p) for p in _STEPPED] + [
    ("convolution", ModelParams(family, nu=nu))
    for family in ("bessel", "asymptotic")
    for nu in (-0.8, 0.0, 1.5)
] + [("convolution", ModelParams("fmax", a1=2.0, b1=1.5))]


def _law_ab(params):
    """(a, b) of sigma + a D^{1/2} sigma = b D^{1/2} eps, for the reference."""
    if params.family == "fmax":
        return params.a1, params.b1
    c = 1.0 / (2.0 * (params.nu + 1.0))
    return c, c


_BLOCK = fracsim._TOEPLITZ_BLOCK


@pytest.mark.parametrize("n", [2, 3, 129, 130, _BLOCK + 1, _BLOCK + 2, 1000, 4097])
@pytest.mark.parametrize("kind", ["stress", "strain"])
@pytest.mark.parametrize(
    "method,model",
    _SIMULATORS,
    ids=[f"{m}-{p.label()}" for m, p in _SIMULATORS],
)
def test_simulators_match_per_step_reference(method, model, kind, n):
    # The Toeplitz products see n - 1 samples: n = 2 and 3 are the shortest
    # histories, 129 and 130 part-filled single leaf blocks, _BLOCK + 1 the
    # longest single block and _BLOCK + 2 the shortest blocked history; 4097
    # fills a power of two of blocks exactly, 1000 does not.
    dt = 2e-3
    ts = dt * np.arange(n)
    for samples in (np.ones(n), ts, np.sin(5.0 * ts)):
        load = LoadHistory(kind, dt, tuple(samples))
        if method == "stepping":
            got = step_response(model, load).samples
            ref = stepping_reference(*_law_ab(model), kind, dt, samples)
        else:
            got = convolve_response(model, load).samples
            ref = convolution_reference(model, kind, dt, samples)
        assert np.max(np.abs(np.array(got) - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("dt", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("kind", ["stress", "strain"])
@pytest.mark.parametrize("params", _STEPPED, ids=lambda p: p.label())
def test_stepping_matches_reference_at_large_dt(params, kind, dt):
    # a strain form that subtracts a solve from the load increments cancels
    # here: slow loads at n = 1000 put it at 1e-12 to 1e-11 relative
    rng = np.random.default_rng(5)
    for n in (200, 1000):
        k = np.arange(n)
        for samples in (np.ones(n), np.sin(2.0 * np.pi * k / n), rng.normal(size=n)):
            got = step_response(params, LoadHistory(kind, dt, tuple(samples))).samples
            ref = stepping_reference(*_law_ab(params), kind, dt, samples)
            assert np.max(np.abs(np.array(got) - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("k", [100, _BLOCK, 1000, 3001, 4097])
def test_causality_is_bit_exact_at_large_n(k):
    # k = 100 edits inside the first leaf block, k = _BLOCK at a leaf edge
    n = 6000
    dt = 2e-3
    rng = np.random.default_rng(11)
    u = rng.normal(size=n)
    v = u.copy()
    v[k:] += rng.normal(size=n - k)
    p = ModelParams("asymptotic", nu=0.3)

    def runs(samples):
        for kind in ("stress", "strain"):
            load = LoadHistory(kind, dt, tuple(samples))
            yield simulate_asymptotic(0.3, load).samples
            yield convolve_response(p, load).samples

    for before, after in zip(runs(u), runs(v)):
        assert np.array_equal(np.array(before)[:k], np.array(after)[:k])
        assert not np.array_equal(np.array(before)[k:], np.array(after)[k:])


def _empty_memos(monkeypatch):
    monkeypatch.setattr(fracsim, "_STEP_PLANS", OrderedDict())


def _counted(monkeypatch, calls, owner, name):
    """Append name to calls on each call of owner.name."""
    real = getattr(owner, name)

    def call(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, call)


def test_l1_inverse_memo_leaves_no_trace(monkeypatch):
    # both load kinds read one memo of plans: U = cumsum(1/W) for stress
    # loads, 1/(c + U) per law for strain loads; neither the order in which
    # laws and lengths fill it, a longer run nor an eviction may move a bit
    laws = [ModelParams("fmax", a1=0.5, b1=2.0), ModelParams("asymptotic", nu=0.3)]
    dt = 2e-3

    def runs(order):
        for kind in ("strain", "stress"):
            for p in laws[::order]:
                for n in (1000, 4097)[::order]:
                    load = LoadHistory(kind, dt, np.sin(5.0 * dt * np.arange(n)))
                    yield (kind, p, n), step_response(p, load).samples

    _empty_memos(monkeypatch)
    first = dict(runs(1))  # a strain run plans U and its law
    met = set(fracsim._STEP_PLANS) - {None}
    step_response(laws[0], LoadHistory("strain", dt, np.ones(16000)))
    after_longer = dict(runs(-1))
    for nu in np.linspace(1.0, 2.0, fracsim._STEP_LAWS):
        step_response(ModelParams("asymptotic", nu=nu), LoadHistory("strain", dt, np.ones(100)))
    assert met.isdisjoint(fracsim._STEP_PLANS)  # both laws evicted
    after_eviction = dict(runs(1))
    _empty_memos(monkeypatch)
    step_response(laws[1], LoadHistory("stress", dt, np.ones(16000)))  # longest first
    step_response(laws[1], LoadHistory("strain", dt, np.ones(16000)))
    for key, last in runs(-1):
        for again in (after_longer[key], after_eviction[key], last):
            assert np.array_equal(first[key], again), key
    leaf, spectra = fracsim._step_plan(None, 999)
    assert len(spectra) == 6  # the 16,384-sample plan: 2^6 leaf blocks
    assert not any(a.flags.writeable for a in (leaf, *spectra))
    for size in (_BLOCK, 1024, 4096):
        # each Newton doubling and the running sum read only what precedes
        # them: a plan built at a shorter length is a prefix of the memo's
        u = np.cumsum(fracsim._reciprocal(fracsim._l1_weights(size), size))
        short_leaf, short_spectra = fracsim._toeplitz_plan(u)
        assert np.array_equal(short_leaf, leaf)
        assert len(short_spectra) == (size // _BLOCK).bit_length() - 1
        assert all(map(np.array_equal, short_spectra, spectra))


def test_strain_column_memo_holds_its_bound(monkeypatch):
    # U's plan and one per law, the least recently used law evicted first;
    # U is refreshed before a law goes in, so it stays even when warm strain
    # calls have left it the least recently used
    _empty_memos(monkeypatch)
    load = LoadHistory("strain", 1e-3, np.ones(1000))
    laws = [ModelParams("asymptotic", nu=nu) for nu in np.linspace(0.0, 3.0, fracsim._STEP_LAWS + 1)]
    for p in laws[:-1] * 2:
        step_response(p, load)
    assert next(iter(fracsim._STEP_PLANS)) is None
    oldest = list(fracsim._STEP_PLANS)[1]
    step_response(laws[-1], load)
    assert len(fracsim._STEP_PLANS) == 1 + fracsim._STEP_LAWS and None in fracsim._STEP_PLANS
    assert oldest not in fracsim._STEP_PLANS
    for leaf, spectra in fracsim._STEP_PLANS.values():  # 1024 samples = 2^2 leaf blocks
        assert len(spectra) == 2 and len(spectra[-1]) == 1024 // 2 + 1
        assert not any(a.flags.writeable for a in (leaf, *spectra))
    calls = []
    for name in ("_reciprocal", "_l1_weights", "_toeplitz_plan"):
        _counted(monkeypatch, calls, fracsim, name)
    step_response(laws[0], LoadHistory("stress", 1e-3, np.ones(1000)))
    assert calls == []  # a stress call after the laws builds nothing


def test_stepping_with_a_warm_memo_makes_one_product(monkeypatch):
    # a strain call with its law's plan in the memo applies it once, planning
    # and inverting nothing; a new law's call adds one Newton inversion that
    # transforms only its iterates (U's spectra stand in for c + U's) and one
    # plan, rebuilding no U; a stress call transforms only its input, one
    # batched rfft per doubling
    _empty_memos(monkeypatch)
    load = np.sin(np.arange(3000.0))
    p = ModelParams("fmax", a1=0.03, b1=40.0)
    step_response(p, LoadHistory("strain", 2e-3, load))
    calls = []
    for name in ("_reciprocal", "_l1_weights", "_toeplitz_plan", "_toeplitz_apply"):
        _counted(monkeypatch, calls, fracsim, name)
    _counted(monkeypatch, calls, np.fft, "rfft")
    step_response(p, LoadHistory("strain", 2e-3, load))
    # 4096 = 2^4 leaves: a batched rfft per doubling of the product
    assert calls == ["_toeplitz_apply"] + ["rfft"] * 4
    calls.clear()
    step_response(ModelParams("fmax", a1=0.04, b1=40.0), LoadHistory("strain", 2e-3, load))
    assert calls == ["_reciprocal"] + ["rfft"] * 8 + ["_toeplitz_plan"] + ["rfft"] * 4 + [
        "_toeplitz_apply"] + ["rfft"] * 4
    calls.clear()
    step_response(p, LoadHistory("stress", 2e-3, load))
    assert calls == ["_toeplitz_apply"] + ["rfft"] * 4


def _memo_column(monkeypatch, c, n):
    """The column 1/(c + U) that _step_plan(c, n) plans, caught on its way in."""
    cols = []
    real = fracsim._toeplitz_plan
    monkeypatch.setattr(fracsim, "_toeplitz_plan", lambda col: cols.append(col) or real(col))
    fracsim._step_plan(c, n)
    monkeypatch.setattr(fracsim, "_toeplitz_plan", real)
    return cols[-1]


@pytest.mark.parametrize("n", [1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 4097, 16_384])
def test_reciprocal_residual(n, monkeypatch):
    # Newton doublings up to _BLOCK coefficients take direct products, later
    # ones FFT products.  Columns: the L1 weights, and the strain stepping
    # columns 1/(c + U), U = cumsum(1/W), that the memo plans, whose FFT
    # doublings read the spectra of U's plan shifted by c, c from large dt
    # (1e-3) to small (1e3).  The residual of a b = 1, summed in extended
    # precision, reaches 1.2e-16.
    _empty_memos(monkeypatch)
    size = fracsim._plan_size(n)  # the memo's U, whose prefix every shorter U is
    inverse_sum = np.cumsum(fracsim._reciprocal(fracsim._l1_weights(size), size))[:n]
    pairs = [(fracsim._l1_weights(n), fracsim._reciprocal(fracsim._l1_weights(n), n))] + [
        (np.concatenate(([c + inverse_sum[0]], inverse_sum[1:])), _memo_column(monkeypatch, c, n)[:n])
        for c in (1e-3, 1.0, 1e3)
    ]
    for col, b in pairs:
        residual = np.convolve(col.astype(np.longdouble), b.astype(np.longdouble))[:n]
        residual[0] -= 1
        assert np.max(np.abs(residual)) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("n", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK, 1000, 4097])
def test_memo_strain_column_product_inverts_c_plus_u(n, monkeypatch):
    # strain stepping solves (c + U) s = rhs by one product through the
    # memo's plan of 1/(c + U): it must invert c + U at every length, c from
    # large dt (1e-3) to small (1e3).  The residual, summed in extended
    # precision, reaches 1.1e-15 of the largest right-hand side
    _empty_memos(monkeypatch)
    rng = np.random.default_rng(n)
    rhs = rng.normal(size=n)
    size = fracsim._plan_size(n)
    u = np.cumsum(fracsim._reciprocal(fracsim._l1_weights(size), size))[:n]
    for c in (1e-3, 1.0, 1e3):
        col = np.concatenate(([c + u[0]], u[1:]))
        s = fracsim._toeplitz_apply(fracsim._step_plan(c, n), rhs)
        residual = np.convolve(col.astype(np.longdouble), s.astype(np.longdouble))[:n] - rhs
        assert np.max(np.abs(residual)) <= 4e-15 * np.max(np.abs(rhs)), c


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18, reason="long double is not an extended type here"
)
def test_l1_weights_do_not_cancel():
    # w_j = sqrt(j+1) - sqrt(j) is formed as 1/(sqrt(j+1) + sqrt(j)): 2.4e-16
    # off the 80-bit value over 16,384 weights, where the difference of the
    # two roots reached 3.4e-12
    n = 16_384
    j = np.arange(n, dtype=np.longdouble)
    exact = 1 / (np.sqrt(j + 1) + np.sqrt(j))
    assert np.max(np.abs(fracsim._l1_weights(n) - exact) / exact) <= 4e-16


_EXTENDED = [ModelParams("asymptotic", nu=nu) for nu in (-0.8, 0.25)] + [
    ModelParams("fmax", a1=0.03, b1=40.0)
]


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18, reason="long double is not an extended type here"
)
@pytest.mark.parametrize("kind", ["stress", "strain"])
@pytest.mark.parametrize("params", _EXTENDED, ids=lambda p: p.label())
def test_stepping_matches_extended_precision_reference(params, kind):
    # the same L1 system solved step by step in 80-bit arithmetic: stress
    # loads reach 5.7e-15 and strain loads 8.6e-15 relative to the largest
    # response sample, under half the bound
    n = 2001
    k = np.arange(n)
    for dt in (1e-3, 0.1, 10.0):
        for samples in (np.ones(n), np.sin(6.0 * np.pi * k / (n - 1))):
            got = step_response(params, LoadHistory(kind, dt, samples)).samples
            ref = stepping_reference(*_law_ab(params), kind, dt, samples, dtype=np.longdouble)
            error = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
            assert error <= 2e-14, (dt, error)


# ---------------------------------------------------------------------------
# Interconversion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "params,tol",
    [
        # the convolution route reaches 5.9e-8, 3.2e-7 and 6.9e-7
        (ModelParams("fmax", a1=1.0, b1=1.0), 3e-7),
        (ModelParams("asymptotic", nu=0.5), 1.5e-6),
        (ModelParams("bessel", nu=0.0), 3e-6),
    ],
    ids=lambda v: v.label() if isinstance(v, ModelParams) else str(v),
)
def test_interconversion_identity(params, tol):
    report = interconversion_check(params, [0.1, 0.5, 1.0, 2.0], 2000)
    assert isinstance(report, InterconversionReport)
    assert report.max_error <= tol


def test_interconversion_runs_one_convolution_per_direction(monkeypatch):
    # J*G = t holds at every sample, so each direction is one run on the
    # n_quad panels of dt = max(t) / n_quad, read at round(t / dt)
    real, runs = fracsim.convolve_response, []

    def spy(params, load, policy=None):
        runs.append((load.kind, load.dt, len(load.samples)))
        return real(params, load, policy)

    monkeypatch.setattr(fracsim, "convolve_response", spy)
    report = interconversion_check(ModelParams("bessel", nu=0.0), [2.0, 0.1, 0.5, 1.0], 2000)
    assert runs == [("stress", 1e-3, 2001), ("strain", 1e-3, 2001)]
    assert report.times == (0.1, 0.5, 1.0, 2.0)
    runs.clear()
    report = interconversion_check(ModelParams("fmax", a1=1.0, b1=1.0), [0.3, 0.07], 100)
    assert runs == [("stress", 3e-3, 101), ("strain", 3e-3, 101)]
    assert report.times == (0.069, 0.3)  # 0.07 read at sample 23, 0.069


def test_interconversion_panels_may_be_narrower_than_the_floor():
    # both loads start at rest, so Bessel panels of 1e-3 run under a 1e-2 floor
    policy = TruncationPolicy(t_floor=1e-2)
    report = interconversion_check(ModelParams("bessel", nu=0.0), [0.1, 2.0], 2000, policy)
    assert report.max_error <= 1e-6


@pytest.mark.parametrize("grid,n_quad,need", [([0.1, 2.0], 300, 320), ([0.5], 15, 16),
                                              ([0.06, 0.5], 0, 134)])
def test_interconversion_refuses_a_smallest_time_below_sample_16(grid, n_quad, need):
    # a time on sample 0 would read a perfect 0
    with pytest.raises(DomainError, match=f"needs n_quad >= {need}$"):
        interconversion_check(ModelParams("fmax", a1=1.0, b1=1.0), grid, n_quad)
    interconversion_check(ModelParams("fmax", a1=1.0, b1=1.0), grid, need)


@pytest.mark.parametrize("grid,n_quad,match", [
    ([0.1, math.nan], 2000, r"^interconversion times must be finite, got nan$"),
    ([0.1, math.inf], 2000, r"^interconversion times must be finite, got inf$"),
    ([-math.inf, 0.1], 2000, r"^interconversion times must be finite, got -inf$"),
    ([0.1, 2.0], 2000.5, r"^n_quad must be an integer >= 0, got 2000\.5$"),
    ([0.1, 2.0], 2000.0, r"^n_quad must be an integer >= 0, got 2000\.0$"),
    ([0.1, 2.0], "2000", r"^n_quad must be an integer >= 0, got '2000'$"),
    ([0.1, 2.0], -1, r"^n_quad must be an integer >= 0, got -1$"),
], ids=["nan", "inf", "-inf", "fraction", "float", "str", "negative"])
def test_interconversion_takes_the_package_argument_rules(grid, n_quad, match):
    # errors.check_array and errors.check_count, as every other layer: a bad
    # time or count is a DomainError (CLI exit 2), never a warning, an
    # OverflowError, a TypeError or a run on fractional panels
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=match):
            interconversion_check(ModelParams("fmax", a1=1.0, b1=1.0), grid, n_quad)


def test_interconversion_keeps_an_integer_count_as_an_int():
    report = interconversion_check(ModelParams("fmax", a1=1.0, b1=1.0), [0.1, 2.0], np.int64(320))
    assert report.n_quad == 320 and type(report.n_quad) is int
    assert report.times == (0.1, 2.0)


@pytest.mark.parametrize(
    "params",
    [ModelParams("fmax", a1=1.0, b1=1.0), ModelParams("asymptotic", nu=0.5),
     ModelParams("bessel", nu=0.0)],
    ids=lambda p: p.family,
)
def test_interconversion_reads_the_relaxation_primitive(params, monkeypatch):
    family = FAMILY_TABLE[params.family]
    skewed = family._replace(relax=lambda p, T, policy: (1 + 1e-4) * family.relax(p, T, policy))
    monkeypatch.setitem(FAMILY_TABLE, params.family, skewed)
    # a 1e-4 relative defect misses t = 2 by 2e-4, above every verify tolerance
    assert interconversion_check(params, [0.1, 0.5, 1.0, 2.0], 2000).max_error > 1e-4


def test_interconversion_grid_validation():
    with pytest.raises(DomainError):
        interconversion_check(ModelParams("fmax", a1=1.0, b1=1.0), [0.01, 0.5])


# ---------------------------------------------------------------------------
# Histories and CSV interchange
# ---------------------------------------------------------------------------


def test_load_history_validation():
    with pytest.raises(DomainError):
        LoadHistory("pressure", 0.1, (0.0, 1.0))
    with pytest.raises(DomainError):
        LoadHistory("stress", 0.0, (0.0, 1.0))
    with pytest.raises(DomainError):
        LoadHistory("stress", 0.1, (1.0,))
    with pytest.raises(DomainError):
        LoadHistory("stress", 0.1, (1.0, math.inf))


def test_histories_store_read_only_float64_copies():
    samples = np.array([0.0, 0.1, 1.0 / 3.0, -2.5])
    load = LoadHistory("stress", 0.1, samples)
    response = simulate_asymptotic(0.3, load)
    for history in (load, response, ResponseHistory("strain", 0.5, [1, 2]),
                    LoadHistory("strain", 0.1, load.samples)):
        assert type(history.samples) is np.ndarray
        assert history.samples.dtype == np.float64 and history.samples.ndim == 1
        assert not history.samples.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            history.samples[0] = 1.0
    assert load.samples.tobytes() == samples.tobytes()  # bit-identical values
    assert ResponseHistory("strain", 0.5, [1, 2]).samples.tolist() == [1.0, 2.0]
    assert LoadHistory("strain", 0.1, (0.5, 1 / 3)).samples.tolist() == [0.5, 1 / 3]
    # a copy: changing the caller's array cannot reach the history
    samples[1] = 7.0
    assert load.samples[1] == 0.1
    assert not np.shares_memory(LoadHistory("strain", 0.1, load.samples).samples, load.samples)
    # histories compare by identity (an array has no truth value)
    assert load == load and load != LoadHistory("stress", 0.1, load.samples)
    with pytest.raises(DomainError, match="^load samples must all be finite$"):
        LoadHistory("stress", 0.1, np.array([0.0, math.nan, 1.0]))
    with pytest.raises(DomainError, match="^a load history needs at least two samples$"):
        LoadHistory("stress", 0.1, np.array([1.0]))
    with pytest.raises(DomainError, match="^load samples must be a flat sequence of numbers$"):
        LoadHistory("stress", 0.1, [[1, 2], [3, 4]])
    with pytest.raises(DomainError, match="^response samples must be a flat sequence"):
        ResponseHistory("strain", 0.5, np.ones((2, 3)))
    with pytest.raises(DomainError, match="^response samples must be a flat sequence"):
        ResponseHistory("strain", 0.5, 1.0)


def test_history_csv_round_trip(tmp_path):
    load = LoadHistory("stress", 0.125, (0.0, 0.5, 1.0, 0.25))
    path = tmp_path / "load.csv"
    write_history(load, path)
    assert path.read_text().splitlines()[0] == "t,value"
    back = read_load_history(path, "stress")
    assert np.array_equal(back.samples, load.samples)
    assert back.dt == load.dt


def test_large_load_history_holds_one_float64_array():
    samples = np.linspace(0.0, 1.0, 10**6)
    tracemalloc.start()
    try:
        load = LoadHistory("stress", 1e-3, samples)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(load.samples) == 10**6
    # 8 MB of float64; a tuple of Python floats held 32 MB
    assert held <= 12e6


class _CountingSink:
    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def test_write_csv_rows_match_the_per_row_format_in_bounded_memory():
    dt = 1e-3
    values = np.sin(np.arange(2 * 4096 + 5) * 0.37) / 3.0
    out = io.StringIO()
    write_csv(out, "t,value", dt * np.arange(len(values)), values)
    rows = [f"{k * dt!r},{v!r}" for k, v in enumerate(values.tolist())]
    assert out.getvalue() == "\n".join(["t,value", *rows]) + "\n"

    n = 2 * 10**5
    ts, values = dt * np.arange(n), np.linspace(-1.0, 1.0, n)
    sink = _CountingSink()
    tracemalloc.start()
    try:
        write_csv(sink, "t,value", ts, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars > 20 * n
    # one 4096-row block at a time; formatting all rows at once peaks near 30 MB
    assert peak <= 4e6


def test_large_load_csv_reads_in_bounded_memory(tmp_path):
    path = tmp_path / "load.csv"
    samples = np.sin(np.arange(10**5) * 1e-3)
    write_history(LoadHistory("stress", 1e-3, samples), path)
    tracemalloc.start()
    try:
        load = read_load_history(path, "stress")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(load.samples, samples)
    # 40 bytes a row: two float64 arrays and the history's copy take 24 (2.5 MB
    # here); the whole text and two lists of Python floats took 157 (15.7 MB)
    assert peak <= 4e6


def test_malformed_csv_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,value\n0.0,0.0\n0.1,oops\n")
    with pytest.raises(DomainError, match=":3"):
        read_load_history(path, "stress")
    # exact messages: the row is quoted without its line ending, blank lines count
    for text, message in [
        ("t,value\r\n0.0,0.0\r\n\r\n0.1,1,2\r\n", "{}:4: malformed row '0.1,1,2'"),
        ("t,value\n0.0,0.0\n0.1,oops", "{}:3: malformed row '0.1,oops'"),
        ("t,val\n0.0,0.0\n", "{}:1: expected header 't,value'"),
        ("", "{}:1: expected header 't,value'"),
        ("t,value\n0.0,1.0\n\n", "{}: need at least two samples"),
    ]:
        path.write_bytes(text.encode("ascii"))
        with pytest.raises(DomainError) as err:
            read_load_history(path, "stress")
        assert str(err.value) == message.format(path)


def test_nonuniform_grid_rejected(tmp_path):
    path = tmp_path / "grid.csv"
    # rows are numbered by file line, so a blank line moves the number; a
    # NaN time is off the grid too
    for text, row, t in [("t,value\n0.0,0.0\n0.1,1.0\n0.3,2.0\n", 4, "0.3"),
                         ("t,value\n0.0,0.0\n\n0.1,1.0\n0.3,2.0\n", 5, "0.3"),
                         ("t,value\n0.0,0.0\n0.1,1.0\nnan,1.0\n", 4, "nan")]:
        path.write_text(text)
        with pytest.raises(GridError) as err:
            read_load_history(path, "stress")
        assert str(err.value) == (
            f"{path}: non-uniform grid at row {row} (t = {t}, expected 0.2)")


def test_grid_must_start_at_zero(tmp_path):
    path = tmp_path / "offset.csv"
    path.write_text("t,value\n0.5,0.0\n0.6,1.0\n")
    with pytest.raises(GridError):
        read_load_history(path, "stress")


def test_response_times_property():
    r = ResponseHistory("strain", 0.5, (0.0, 1.0, 2.0))
    assert np.allclose(r.times, [0.0, 0.5, 1.0])
