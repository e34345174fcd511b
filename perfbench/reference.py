"""Independent references for every op, and the checker that applies them.

Nothing here calls viscobessel.  The references run after the timed loop:

* Bessel-family series: zero tables from ``scipy.special.jv``, bracketed on a
  fine grid and polished with ``brentq``, summed with REF_TERMS terms (the
  program sums at most 200).  The primitives integrate the series termwise.
* closed-form J, G and their primitives: ``scipy.special.erfcx``.
* sine-load responses: ``scipy.integrate.quad`` of K(tau) f'(t - tau).
* figure CSVs: the sha256 of the seed's output.

``check(op, sample)`` returns ``(ok, err, why)``: ``err`` is the achieved
error (scaled as each op kind documents) and is reported next to the timings.
"""

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erfcx, jv

from workloads import curve_grid

REF_TERMS = 1000
SQRT_PI = math.sqrt(math.pi)

# Tolerances.  Errors are |value - reference| / max(1, |reference|) unless
# an op kind says otherwise.
TOL_BESSEL_CURVE = 1e-9  # series tail target 1e-10 plus reference roundoff
TOL_CLOSED_CURVE = 1e-11
TOL_TALBOT = 1e-6  # relative, as `verify --check laplace-oracle`
TOL_RECIPROCITY = 1e-10
TOL_INTERCONVERSION = {"bessel": 1e-4, "asymptotic": 1e-5, "fmax": 1e-5}
TOL_ZERO = 1e-10
TOL_ZERO_RESIDUAL = 1e-9
# Simulations: error / max(load amplitude, |reference|).
TOL_SIM_EXACT = 1e-8  # convolution of steps and ramps is exact up to the kernel
TOL_SIM_SINE = 1e-5  # second-order product trapezoid on a smooth load
TOL_STEP_FINAL = 5e-3  # stepping, step load, t >= 1 (the tests' final-value bound)
TOL_CROSS_PATH = 5e-4  # stepping, ramp and sine loads (the tests' cross-path bound)


@lru_cache(maxsize=None)
def ref_zeros(order: float, count: int = REF_TERMS) -> np.ndarray:
    """First ``count`` positive zeros of J_order by grid bracketing plus brentq."""
    hi = (count + 0.5 * order + 2.0) * math.pi
    x = np.arange(1e-3, hi, 0.05)
    f = jv(order, x)
    signs = np.nonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0)[0]
    zeros = [brentq(lambda z: jv(order, z), x[i], x[i + 1], xtol=1e-15, rtol=1e-15)
             for i in signs[:count]]
    if len(zeros) < count:
        raise RuntimeError(f"found only {len(zeros)} zeros of J_{order}")
    return np.array(zeros)


def _sq(order):
    return ref_zeros(float(order)) ** 2


def glass(params, fn):
    j0 = params["a1"] / params["b1"] if params["family"] == "fmax" else 1.0
    return j0 if fn == "J" else 1.0 / j0


def material(params, fn, ts):
    """J(t) or G(t) at times ts > 0."""
    ts = np.asarray(ts, dtype=float)
    fam = params["family"]
    if fam == "bessel":
        nu = params["nu"]
        if fn == "J":
            sq = _sq(nu + 2.0)
            series = (np.exp(-np.outer(ts, sq)) / sq).sum(axis=1)
            return 2 * (nu + 2) / (nu + 3) + 4 * (nu + 1) * (nu + 2) * ts - 4 * (nu + 1) * series
        sq = _sq(nu)
        return 4 * (nu + 1) * (np.exp(-np.outer(ts, sq)) / sq).sum(axis=1)
    if fam == "asymptotic":
        lam = 2.0 * (params["nu"] + 1.0)
        if fn == "J":
            return 1.0 + 2.0 * lam * np.sqrt(ts) / SQRT_PI
        return erfcx(lam * np.sqrt(ts))
    a1, b1 = params["a1"], params["b1"]
    if fn == "J":
        return (a1 / b1) * (1.0 + 2.0 * np.sqrt(ts) / (a1 * SQRT_PI))
    return (b1 / a1) * erfcx(np.sqrt(ts) / a1)


def primitive(params, fn, ts):
    """int_0^T J or int_0^T G at bounds T >= 0."""
    T = np.asarray(ts, dtype=float)
    fam = params["family"]
    if fam == "bessel":
        nu = params["nu"]
        sq = _sq(nu + 2.0 if fn == "J" else nu)
        series = (-np.expm1(-np.outer(T, sq)) / sq**2).sum(axis=1)
        if fn == "J":
            return (2 * (nu + 2) / (nu + 3) * T + 2 * (nu + 1) * (nu + 2) * T * T
                    - 4 * (nu + 1) * series)
        return 4 * (nu + 1) * series
    if fam == "asymptotic":
        c = 1.0 / (2.0 * (params["nu"] + 1.0))
        a1 = b1 = c
    else:
        a1, b1 = params["a1"], params["b1"]
    root = np.sqrt(T)
    if fn == "J":
        return (a1 / b1) * (T + 4.0 * T**1.5 / (3.0 * a1 * SQRT_PI))
    return a1 * b1 * (erfcx(root / a1) - 1.0) + 2.0 * b1 * root / SQRT_PI


def memory_phi(nu, ts):
    sq = _sq(nu)
    return 4 * (nu + 1) * np.exp(-np.outer(np.asarray(ts, dtype=float), sq)).sum(axis=1)


def response(params, load, idx):
    """Exact response to a step, ramp or sine load at grid indices idx."""
    fn = "J" if load["kind"] == "stress" else "G"
    ts = load["dt"] * np.asarray(idx, dtype=float)
    amp = load["amp"]
    if load["shape"] == "step":
        out = np.empty_like(ts)
        pos = ts > 0
        out[~pos] = glass(params, fn)
        out[pos] = material(params, fn, ts[pos])
        return amp * out
    if load["shape"] == "ramp":
        t_end = load["dt"] * (load["n"] - 1)
        return amp / t_end * primitive(params, fn, ts)
    omega = load["omega"]

    def one(t):
        if t == 0.0:
            return 0.0
        integrand = lambda u: material(params, fn, [u])[0] * math.cos(omega * (t - u))
        return amp * omega * quad(integrand, 0.0, t, limit=400, epsabs=1e-13, epsrel=1e-12)[0]

    return np.array([one(t) for t in ts])


# ---------------------------------------------------------------------------
# the checker
# ---------------------------------------------------------------------------


def _scaled(values, ref, floor=1.0):
    values = np.asarray(values, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if values.shape != ref.shape or not np.all(np.isfinite(values)):
        return math.inf
    return float(np.max(np.abs(values - ref) / np.maximum(floor, np.abs(ref))))


def _verdict(err, tol, why=""):
    ok = err <= tol
    return ok, err, "" if ok else (why or f"error {err:.3e} > tolerance {tol:.1e}")


def curve_tolerance(params):
    return TOL_BESSEL_CURVE if params["family"] == "bessel" else TOL_CLOSED_CURVE


def _check_curve(op, s):
    if s["values"] is None:
        return False, math.inf, "wrong output length"
    ts = curve_grid(op)[op["check_idx"]]
    err = _scaled(s["values"], material(op["params"], op["fn"], ts))
    return _verdict(err, curve_tolerance(op["params"]))


def _check_talbot(op, s):
    ref = material(op["params"], op["fn"], [op["t"]])[0]
    err = abs(s["inv"] - ref) / abs(ref)
    direct = _scaled([s["direct"]], [ref])
    if not direct <= curve_tolerance(op["params"]):
        return False, err, f"series value off by {direct:.3e}"
    return _verdict(err, TOL_TALBOT)


def _check_reciprocity(op, s):
    err = float(s) if math.isfinite(s) else math.inf
    return _verdict(err, TOL_RECIPROCITY)


def _check_interconversion(op, s):
    if len(s["errors"]) != len(op["grid"]):
        return False, math.inf, "wrong number of grid errors"
    return _verdict(s["max_error"], TOL_INTERCONVERSION[op["params"]["family"]])


def _check_short_time(op, s):
    nu, ts = op["nu"], np.asarray(op["grid"])
    ref = np.abs(material({"family": "bessel", "nu": nu}, "J", ts)
                 - material({"family": "asymptotic", "nu": nu}, "J", ts))
    if not s["consistent"]:
        return False, math.inf, "r(t)/sqrt(t) is not monotone"
    return _verdict(_scaled(s["residuals"], ref), TOL_BESSEL_CURVE)


def cm_violation(values, h):
    """Largest sign violation of (-1)^k f^(k) >= 0, k = 1..4, over the stencils."""
    worst = 0.0
    for i in range(0, len(values), 5):
        f = values[i:i + 5]
        d = ((f[3] - f[1]) / (2 * h),
             (f[3] - 2 * f[2] + f[1]) / h**2,
             (f[4] - 2 * f[3] + 2 * f[1] - f[0]) / (2 * h**3),
             (f[4] - 4 * f[3] + 6 * f[2] - 4 * f[1] + f[0]) / h**4)
        for order, dk in enumerate(d, start=1):
            worst = max(worst, -dk * (-1.0) ** order)
    return worst


def _check_cm(op, s):
    ts = [t + k * op["h"] for t in op["times"] for k in range(-2, 3)]
    violation = cm_violation(s, op["h"])
    if violation > 0.0:
        return False, math.inf, f"complete monotonicity violated by {violation:.3e}"
    return _verdict(_scaled(s, memory_phi(op["nu"], ts)), TOL_BESSEL_CURVE)


def _check_zero_list(zeros, count, nu, idx, n):
    if count != n or any(z is None for z in zeros):
        return math.inf
    return _scaled(zeros, ref_zeros(float(nu))[idx])


def _check_zeros(op, s):
    err = _check_zero_list(s["zeros"], s["count"], op["nu"], op["check_idx"], op["n"])
    if not s["residual"] <= TOL_ZERO_RESIDUAL:
        return False, err, f"|J_nu(zero)| = {s['residual']:.3e}"
    if not 0.0 < s["gap"] <= s["bound"]:
        return False, err, f"Rayleigh gap {s['gap']:.3e} outside (0, {s['bound']:.3e}]"
    return _verdict(err, TOL_ZERO)


def sim_tolerance(method, load):
    if method == "stepping":
        return TOL_STEP_FINAL if load["shape"] == "step" else TOL_CROSS_PATH
    return TOL_SIM_SINE if load["shape"] == "sine" else TOL_SIM_EXACT


def _sim_error(method, params, load, idx, values):
    idx = np.asarray(idx)
    values = np.asarray(values, dtype=float)
    if method == "stepping" and load["shape"] == "step":
        # The L1 start-up error decays by t = 1 (or the last sample, if sooner).
        keep = idx * load["dt"] >= min(1.0, load["dt"] * (load["n"] - 1))
        idx, values = idx[keep], values[keep]
    return _scaled(values, response(params, load, idx), floor=load["amp"])


def _check_sim(op, s):
    if s["values"] is None:
        return False, math.inf, "wrong output length"
    expected = "strain" if op["load"]["kind"] == "stress" else "stress"
    if s["kind"] != expected:
        return False, math.inf, f"response kind {s['kind']!r}, expected {expected!r}"
    err = _sim_error(op["kind"], op["params"], op["load"], op["check_idx"], s["values"])
    return _verdict(err, sim_tolerance(op["kind"], op["load"]))


def _csv_values(s, n):
    if s.get("rows") != n or any(v is None or len(v) != 2 for v in s["values"]):
        return None
    return np.array(s["values"])


def _check_cli(op, s):
    if s["code"] != op["expect"]:
        return False, math.inf, f"exit {s['code']}, expected {op['expect']}: {s['stderr']}"
    if op["expect"] != 0:
        return True, 0.0, ""
    if "sha256" in op:
        ok = s["sha256"] == op["sha256"]
        return ok, 0.0 if ok else math.inf, "" if ok else f"figure CSV sha256 {s['sha256']}"
    if "curve" in op:
        spec = op["curve"]
        vals = _csv_values(s, spec["n"])
        if vals is None or s["header"] != f"t,{spec['fn']}":
            return False, math.inf, "malformed curve CSV"
        ts = curve_grid(spec)[op["check_idx"]]
        if _scaled(vals[:, 0], ts) > 1e-15:
            return False, math.inf, "CSV time column differs from the requested grid"
        ref = material(spec["params"], spec["fn"], ts)
        return _verdict(_scaled(vals[:, 1], ref), curve_tolerance(spec["params"]))
    if "records" in s:
        bad = [r for r in s["records"] if not (r["pass"] and r["max_error"] <= r["tolerance"])]
        if bad or not s["records"]:
            return False, math.inf, f"failing verify records: {bad}"
        return True, 0.0, ""
    if op["sub"] == "simulate":
        vals = _csv_values(s, op["load"]["n"])
        if vals is None or s["header"] != "t,value":
            return False, math.inf, "malformed response CSV"
        err = _sim_error(op["method"], op["params"], op["load"], op["check_idx"], vals[:, 1])
        return _verdict(err, sim_tolerance(op["method"], op["load"]))
    if op["sub"] == "zeros":
        n = int(op["args"][op["args"].index("--n") + 1])
        err = _check_zero_list(s["zeros"], s["count"], op["nu"], op["check_idx"], n)
        return _verdict(err, TOL_ZERO)
    return False, math.inf, "no check defined for this op"


CHECKS = {
    "curve": _check_curve, "talbot": _check_talbot, "reciprocity": _check_reciprocity,
    "interconversion": _check_interconversion, "short_time": _check_short_time,
    "cm": _check_cm, "zeros": _check_zeros, "stepping": _check_sim,
    "convolution": _check_sim, "cli": _check_cli,
}


def check(op, sample):
    """(ok, achieved error, reason) for one executed op; an exception means it raised."""
    if isinstance(sample, BaseException):
        return False, math.inf, f"raised {type(sample).__name__}: {sample}"
    return CHECKS[op["kind"]](op, sample)
