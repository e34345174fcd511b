"""Time-domain simulation of the viscoelastic constitutive laws.

Two independent routes are implemented, both on uniform grids t_k = k dt:

Caputo-1/2 stepping (the fractional Maxwell class: fmax and asymptotic)
    The constitutive law sigma + a D^{1/2} sigma = b D^{1/2} eps, with a and b
    from the family's law (a1, b1 for fmax, a = b = 1/(2(nu+1)) for the
    asymptotic family), is discretized with the L1 scheme

        (D^{1/2} f)(t_k) ~ dt^{-1/2}/Gamma(3/2) *
                           sum_{j=0}^{k-1} w_j (f_{k-j} - f_{k-j-1}),
        w_j = sqrt(j+1) - sqrt(j),

    solved implicitly for the unknown variable (see step_response).
    Step-load responses converge to the closed-form material functions with
    empirical order ~1 (the t^{1/2} start-up singularity limits the nominal 1.5).

Hereditary convolution (all families)
    eps = J_g sigma + (dJ * sigma), sigma = G_g eps + (dG * eps).  The creep
    and relaxation rates diverge like t^{-1/2} at zero, so the trapezoidal
    rule is applied in Stieltjes form: the load is averaged over each panel
    against the *exact* kernel increment, and on the first panel against the
    exact first moment int_0^dt tau dJ = dt J(dt) - int_0^dt J (the family
    primitives are closed-form).  This keeps second-order convergence for
    smooth loads despite the singular kernel, and reproduces step-load
    responses exactly up to kernel accuracy.  Folded into one column, the
    kernel values cancel: the column reads only the primitive, which has no
    floor, and J or G is read only for the step term of a nonzero first
    sample.  A Bessel load at rest therefore runs at any dt; its primitive's
    error (~1e-14) enters the first panels divided by dt: 1.6e-8 of a step
    from rest at dt = 1e-8.

Evaluation: every route is one causal Toeplitz product, evaluated by blocks
(Hairer, Lubich & Schlichte 1985) in O(n log^2 n) from a plan of its column:
256-sample leaf blocks through one BLAS product, then one FFT spectrum per
doubling.  Stepping reads one memo of plans, each at the longest padded
length met: U = cumsum(1/W), W the L1 weights, for stress loads, and
1/(c + U) for strain loads of the last 8 laws (a 512 KiB leaf plus 16 bytes
per sample each); a convolution plans its folded panel column per call.  A
longer U or 1/(c + U) starts with the same bits, so no result depends on the
order of calls, and no output on a later input, bit for bit.  Last digits
differ from a per-step loop: stepping is within 8.6e-15 (relative to the
largest sample) of an 80-bit forward substitution of the same L1 system at
n = 2001, dt 1e-3 to 10; convolution errors grow along the history: at
n = 20,000 and dt = 1e-2, stress loads reach 3.3e-11 (Bessel) and 5.3e-12
(fmax), strain loads 5e-14.

Initial condition convention: a nonzero load sample at k = 0 is treated as an
instantaneous step mapped through the glass constants, response(0) = J_g *
load(0) (stress input) or G_g * load(0) (strain input).

Histories: LoadHistory and ResponseHistory hold their samples as a read-only
1-D float64 array, copied once when the history is built; the simulators read
a load's array without converting it.  ``write_history`` writes through
``csvout.write_csv``, the one CSV writer (every cell the repr of a Python
float), which every CSV the CLI emits also uses.

Interconversion: since (s Jt)(s Gt) = 1, the material functions satisfy
int_0^t J(tau) G(t - tau) dtau = t.  ``interconversion_check`` computes it by
one convolution each way on one grid, int_0^tau G as a stress load and
int_0^tau J as a strain load, each of which must respond with t at every
sample; a requested time is read at its nearest sample.
"""

import bisect
import math
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .csvout import write_csv
from .errors import DomainError, GridError
from .models.evaluate import family_of
from .models.params import DEFAULT_POLICY, LAWS, ModelParams

LOAD_KINDS = ("stress", "strain")
_GAMMA_3_2 = math.gamma(1.5)
_TOEPLITZ_BLOCK = 256  # leaf block of _toeplitz_apply, one BLAS product


@dataclass(frozen=True, eq=False)
class _History:
    """kind, dt and samples[k] at t = k dt, held as a read-only float64 copy."""

    kind: str
    dt: float
    samples: np.ndarray

    _role = "response"

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float)  # the one copy
        if samples.ndim != 1:
            raise DomainError(f"{self._role} samples must be a flat sequence of numbers")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.samples))


class LoadHistory(_History):
    """Uniformly sampled stress or strain input."""

    _role = "load"

    def __post_init__(self):
        if self.kind not in LOAD_KINDS:
            raise DomainError(f"kind must be one of {LOAD_KINDS}, got {self.kind!r}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise DomainError(f"dt must be finite and > 0, got {self.dt!r}")
        if len(self.samples) < 2:
            raise DomainError("a load history needs at least two samples")
        super().__post_init__()
        if not np.isfinite(self.samples).all():
            raise DomainError("load samples must all be finite")


class ResponseHistory(_History):
    """Conjugate variable on the same grid as the input that produced it."""


def _conjugate(kind: str) -> str:
    return "strain" if kind == "stress" else "stress"


# ---------------------------------------------------------------------------
# Caputo derivative and stepping
# ---------------------------------------------------------------------------


def _plan_size(n: int) -> int:
    """Padded length of an n-sample product: a power of two of leaf blocks."""
    return _TOEPLITZ_BLOCK << (-(-n // _TOEPLITZ_BLOCK) - 1).bit_length()


def _leaf(col) -> np.ndarray:
    """leaf[j, r] = col[r - j] for r >= j, 0 above, so x @ leaf is the causal
    product of a block; copied once from the strided view, which matmul would
    otherwise copy at a higher cost."""
    padded = np.concatenate((np.zeros(_TOEPLITZ_BLOCK - 1), col[:_TOEPLITZ_BLOCK]))
    return np.ascontiguousarray(sliding_window_view(padded, _TOEPLITZ_BLOCK)[::-1])


def _halves(size: int) -> list:
    """The doublings h < size of a padded size."""
    return [_TOEPLITZ_BLOCK << level for level in range((size // _TOEPLITZ_BLOCK).bit_length() - 1)]


def _toeplitz_plan(col):
    """What products with col read for up to len(col) samples: its head's leaf
    and, per doubling h < _plan_size(len(col)), rfft(col[:2h]), col padded
    with zeros.  Plans of two prefixes of one column share their levels."""
    cp = np.concatenate((col, np.zeros(_plan_size(len(col)) - len(col))))
    return _leaf(cp), [np.fft.rfft(cp[: 2 * h]) for h in _halves(len(cp))]


def _toeplitz_apply(plan, x) -> np.ndarray:
    """Causal product y[k] = sum_{j<=k} col[j] x[k-j] for k < len(x), on a
    plan of col for at least len(x) samples.

    Blocked fast convolution (Hairer, Lubich & Schlichte 1985), unrolled
    bottom-up: the leaf blocks of _TOEPLITZ_BLOCK samples are one BLAS matrix
    product with the plan's leaf, then each doubling h adds the first half of
    every 2h-aligned segment into its second half with one batched rfft/irfft
    product of size 2h against the plan's spectrum.  Output k reads only
    x[:k+1] through operations fixed by len(x) (later samples of its leaf meet
    exact zeros), so editing the input from any index on leaves earlier
    outputs bit-identical.  O(n log^2 n).
    """
    n = len(x)
    size = _plan_size(n)
    xp = np.zeros(size)
    xp[:n] = x
    y = (xp.reshape(-1, _TOEPLITZ_BLOCK) @ plan[0]).reshape(-1)
    for h, spectrum in zip(_halves(size), plan[1]):
        # Linear products reach index 3h - 2; the wrap lands below h.
        first = np.fft.rfft(xp.reshape(-1, 2 * h)[:, :h], 2 * h)
        first *= spectrum
        y.reshape(-1, 2 * h)[:, h:] += np.fft.irfft(first, 2 * h)[:, h:]
    return y[:n]


def _reciprocal(col, n: int, spectra=None) -> np.ndarray:
    """First n coefficients of the reciprocal power series b = 1/a of col.

    The inverse of the lower-triangular Toeplitz matrix of col is Toeplitz
    with column b.  Newton doubling b <- b (2 - a b) mod z^{2k}: with
    a b = 1 + z^k e mod z^{2k}, the update appends -(b e) mod z^k.
    Doublings up to _TOEPLITZ_BLOCK coefficients take direct products, the
    rest FFT products whose cyclic wrap misses the kept coefficients.  Each
    doubling reads only the coefficients of a and b below its end, so at a
    power-of-two n, b is bit for bit a prefix of the reciprocal of the same
    series at any longer length.  spectra, if given, yields rfft(a[:2k]) for
    each FFT doubling in turn, and col is read to _TOEPLITZ_BLOCK only.
    """
    a = np.zeros(1 << (n - 1).bit_length())
    a[: min(n, len(col))] = col[:n]
    b = np.array([1.0 / a[0]])
    while len(b) < n:
        k = len(b)
        if 2 * k <= _TOEPLITZ_BLOCK:
            e = np.convolve(a[: 2 * k], b)[k : 2 * k]
            b = np.concatenate((b, -np.convolve(b, e)[:k]))
        else:
            a_hat = np.fft.rfft(a[: 2 * k]) if spectra is None else next(spectra)
            b_hat = np.fft.rfft(b, 2 * k)
            e = np.fft.irfft(a_hat * b_hat, 2 * k)[k:]
            b = np.concatenate((b, -np.fft.irfft(b_hat * np.fft.rfft(e, 2 * k), 2 * k)[:k]))
    return b[:n]


def _l1_weights(n: int) -> np.ndarray:
    j = np.arange(n, dtype=float)
    return 1.0 / (np.sqrt(j + 1.0) + np.sqrt(j))  # sqrt(j + 1) - sqrt(j), without cancelling


_STEP_LAWS = 8  # strain laws whose plans _STEP_PLANS keeps beside U's, in use order
_STEP_PLANS = OrderedDict()  # c of a strain law, or None for U: its plan at the longest size met


def _step_plan(c, m: int):
    """The plan of U = cumsum(1/W) (c None) or of 1/(c + U), inverted from
    U's head and spectra shifted by c, for m samples; memoized at the longest
    padded length met, a prefix of any longer one.  U is refreshed before a
    law goes in, so the least recently used law is evicted, never U."""
    size = _plan_size(m)
    plan = _STEP_PLANS.pop(c, None)
    if plan is None or size > _TOEPLITZ_BLOCK << len(plan[1]):
        if c is None:
            col = np.cumsum(_reciprocal(_l1_weights(size), size))
        else:
            leaf, spectra = _step_plan(None, m)
            head = np.concatenate(([leaf[0][0] + c], leaf[0][1:]))
            col = _reciprocal(head, size, (spectrum + c for spectrum in spectra))
        plan = _toeplitz_plan(col)
        for array in (plan[0], *plan[1]):  # shared by every later call
            array.flags.writeable = False
    _STEP_PLANS[c] = plan
    if len(_STEP_PLANS) > 1 + _STEP_LAWS:
        _STEP_PLANS.popitem(last=False)
    return plan


def step_response(params: ModelParams, load: LoadHistory) -> ResponseHistory:
    """Step the law sigma + a D^{1/2} sigma = b D^{1/2} eps of a fractional
    Maxwell family, a = 1/lam and b = a/g from its (lam, g).

    With response increments d_k = out[k] - out[k-1], load increments df,
    W the L1 Toeplitz matrix of column w and kappa = 1/(sqrt(dt) Gamma(3/2)),
    each direction is a lower-triangular Toeplitz system:

    * stress input, b kappa W d = sigma + a kappa W df, so
      d = g df + W^{-1} sigma / (b kappa) (discrete half-order integration),
      and summed from the glass start, out_k = g f_k + (U sigma)_k / (b kappa)
      with U = cumsum(W^{-1}) = 1/((1 - z) W): one product through the
      memo's plan of U, which depends only on the length;
    * strain input, with c = a kappa and S, F the series of response and
      load samples 1..m: the glass start sigma_0 = f_0/g has c sigma_0 =
      b kappa f_0, so the f_0 terms cancel and (1 + c (1 - z) W) S =
      b kappa (1 - z) W F, that is S = b kappa F / (c + U): one product
      through the memo's plan of the law's 1/(c + U).  No load increment is
      formed: slow loads at dt up to 1e5 stay within 6e-14 of an 80-bit solve.

    The response starts from the instantaneous step through the glass
    constants: g f_0 for stress input, f_0 / g for strain input.  The
    Bessel family has no finite-order law and is refused (DomainError).
    """
    if params.family not in LAWS:
        raise DomainError(f"stepping needs a fractional Maxwell law; family "
                          f"{params.family!r} has none (use convolution)")
    lam, g = LAWS[params.family](params)
    a, f = 1.0 / lam, load.samples
    root_kappa = math.sqrt(load.dt) * _GAMMA_3_2  # 1 / kappa
    b_kappa = a / g / root_kappa
    m = len(f) - 1
    if load.kind == "strain":
        out = np.concatenate(([f[0] / g], _toeplitz_apply(_step_plan(a / root_kappa, m), b_kappa * f[1:])))
    else:
        out = g * f
        out[1:] += _toeplitz_apply(_step_plan(None, m), f[1:] / b_kappa)
    return ResponseHistory(kind=_conjugate(load.kind), dt=load.dt, samples=out)


def simulate_asymptotic(nu: float, load: LoadHistory) -> ResponseHistory:
    """Step the asymptotic law [1 + c D^{1/2}] sigma = c D^{1/2} eps, c = 1/(2(nu+1))."""
    return step_response(ModelParams("asymptotic", nu=nu), load)


# ---------------------------------------------------------------------------
# Hereditary convolution
# ---------------------------------------------------------------------------


def convolve_response(
    params: ModelParams, load: LoadHistory, policy=None
) -> ResponseHistory:
    """Hereditary-integral response for any family (product trapezoid).

    On each panel [j dt, (j+1) dt] the load is linearized between its two
    samples and integrated against the exact kernel measure dK, using the
    closed-form panel increments dK_j and first moments

        M_j = int (tau - j dt) dK(tau) = dt K((j+1)dt) - dP_j,

    P being the family's kernel primitive and dP_j = P((j+1)dt) - P(j dt).
    The rule is exact for step loads and second-order for smooth ones,
    including the t^{-1/2} kernel-rate singularity at tau = 0.

    Folded into one causal product over f[1:], the kernel values cancel: the
    column is dP_0/dt - K(0) and (dP_j - dP_{j-1})/dt, so it reads the
    primitive alone.  K(k dt) enters only the step term f_0 (K_{k+1} - dP_k/dt)
    and is evaluated only for a nonzero first sample, the one case in which a
    Bessel kernel refuses dt below policy.t_floor.
    """
    policy = policy or DEFAULT_POLICY
    dt = load.dt
    f = load.samples
    grid = dt * np.arange(len(f))
    family = family_of(params)
    if load.kind == "stress":
        glass, kernel, primitive = family.glass(params), family.J, family.creep
    else:
        glass, kernel, primitive = 1.0 / family.glass(params), family.G, family.relax

    # Load linear on panel j: f(t_k - tau) = f_{k-j} + (f_{k-j-1} - f_{k-j}) u
    # with u = (tau - j dt)/dt, so the panel integral against dK is
    # f_{k-j} (dK_j - M_j/dt) + f_{k-j-1} M_j/dt; summed over j, the far
    # terms shift onto the near column except the one reading f_0.
    dp = np.diff(primitive(params, grid, policy)) / dt  # dP_j / dt
    col = np.diff(dp, prepend=glass)
    response = _toeplitz_apply(_toeplitz_plan(col), f[1:])
    if f[0] != 0.0:
        response += f[0] * (kernel(params, grid[1:], policy) - dp)
    out = glass * f
    out[1:] += response
    return ResponseHistory(kind=_conjugate(load.kind), dt=dt, samples=out)


# ---------------------------------------------------------------------------
# Interconversion check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterconversionReport:
    params: ModelParams
    times: tuple[float, ...]
    errors: tuple[float, ...]
    max_error: float
    n_quad: int


def interconversion_check(
    params: ModelParams, t_grid, n_quad: int = 2000, policy=None
) -> InterconversionReport:
    """max_t | int_0^t J(tau) G(t-tau) dtau - t | over the grid, by convolution.

    int G as a stress load and int J as a strain load, each on the n_quad
    panels of dt = max(t_grid) / n_quad, must respond with k dt at every
    sample k.  Each t is read at sample round(t / dt) and reported at that
    sample's time; the smallest must land on sample 16 or later.  Both loads
    start at rest (every primitive is 0 at T = 0), so only the primitives are
    read, and neither the grid nor its panels depend on t_floor.
    """
    policy = policy or DEFAULT_POLICY
    times = sorted(float(t) for t in t_grid)
    if not times or times[0] < 0.05:
        raise DomainError("interconversion grid must start at or above 0.05")
    dt = times[-1] / max(n_quad, 1)
    k = np.rint(np.array(times) / dt).astype(int)
    if k[0] < 16:
        raise DomainError(f"n_quad = {n_quad!r} puts t = {times[0]!r} on sample {k[0]}, below 16; "
                          f"this grid needs n_quad >= {math.ceil(16.0 * times[-1] / times[0])}")
    grid = dt * np.arange(n_quad + 1)
    family = family_of(params)
    errors = np.zeros(len(k))
    for kind, primitive in (("stress", family.relax), ("strain", family.creep)):
        load = LoadHistory(kind=kind, dt=dt, samples=primitive(params, grid, policy))
        response = convolve_response(params, load, policy)
        errors = np.maximum(errors, np.abs(response.samples[k] - grid[k]))
    return InterconversionReport(
        params=params,
        times=tuple(grid[k].tolist()),
        errors=tuple(errors.tolist()),
        max_error=float(errors.max()),
        n_quad=n_quad,
    )


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def read_load_history(path, kind: str) -> LoadHistory:
    """Parse a `t,value` CSV on a uniform grid starting at t = 0, a line at a
    time; messages number rows by file line.  A byte outside ASCII reads as a
    `\\xNN` escape, which makes its row malformed."""
    path = Path(path)
    ts, vals = array("d"), array("d")
    blanks = []  # samples read before each blank line
    with path.open(encoding="ascii", errors="backslashreplace") as fh:
        if fh.readline().rstrip("\n") != "t,value":
            raise DomainError(f"{path}:1: expected header 't,value'")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                blanks.append(len(ts))
                continue
            try:
                t, value = line.split(",")  # not two columns: ValueError
                ts.append(float(t))
                vals.append(float(value))  # float() ignores the newline
            except ValueError as exc:
                row = line.rstrip("\n")
                raise DomainError(f"{path}:{lineno}: malformed row {row!r}") from exc
    if len(ts) < 2:
        raise DomainError(f"{path}: need at least two samples")
    dt = ts[1] - ts[0]
    if not (abs(ts[0]) <= 1e-12 and dt > 0.0):  # NaN fails too
        raise GridError(f"{path}: grid must start at t = 0 with positive spacing")
    for k, t in enumerate(ts):
        if not abs(t - k * dt) <= 1e-9 * max(1.0, abs(t)):  # NaN fails too
            lineno = k + 2 + bisect.bisect_right(blanks, k)  # blank lines count
            raise GridError(
                f"{path}: non-uniform grid at row {lineno} (t = {t!r}, "
                f"expected {k * dt!r})"
            )
    return LoadHistory(kind=kind, dt=dt, samples=vals)


def write_history(history, path) -> Path:
    """Write a Load/ResponseHistory as a `t,value` CSV (round-trip exact)."""
    path = Path(path)
    with path.open("w", encoding="ascii") as fh:
        write_csv(fh, "t,value", history.times, history.samples)
    return path
