"""Seeded op lists for the four workloads, and how one op is prepared and run.

An op is one user request, written as a JSON-serialisable dict so that the op
list can be hashed into the result's provenance.  The same seed always gives
the same list.  The seed draws parameters (orders, coefficients, spacings,
load shapes, which talbot time goes with which order, the op order) while the
mix of op classes and sizes is fixed per workload: every seed then costs about
the same, so the spread between seeds measures the program and not the draw.

Each workload is a closed loop with one client (see run.py); this module only
builds inputs (untimed), calls the library (timed) and extracts the part of
an output the checker needs (untimed).  BENCHMARK.json runs curves, simulate
and cli; verify's mpmath-bound ops swing too much between runs on a shared
machine to gate a change, so it runs as a small traced pass in every traced
run (or by hand).
"""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

NU_RANGE = (-0.8, 1.5)
COEFF_RANGE = (0.5, 2.0)
CURVE_RANGES = {"short": (1e-3, 1e-2), "wide": (1e-3, 2.0), "long": (0.1, 10.0)}
SPACINGS = ("log", "linear")
# Each pass: six 1e6-point Bessel G curves (the n_use x n_t outer product;
# they set the peak RSS, and the latency tail falls among their twelve
# fastest samples, clear of the 1e5-point ops below them), J and G of every family from
# 1e2 to 1e5 points on the three ranges, and a block of 1e5-point Bessel G
# curves on the long range that holds the median: there the series always
# keeps n_min terms, so their cost depends on neither the order nor the
# Python interpreter's speed as much as the scalar closed-form loops do.
# Closed-form G stops at 1e4: its scalar erfcx loop costs 0.15-0.5 s per 1e5
# points depending on the argument, which would let the parameter draw rather
# than the program set the tail.
CURVE_BESSEL_SIZES = (100, 1_000, 100_000)
CURVE_CLOSED_SIZES = {"J": (1_000, 100_000), "G": (1_000, 10_000)}
CURVE_HUGE = 1_000_000
CURVE_HUGE_OPS = 6
CURVE_MEDIAN = 100_000
CURVE_MEDIAN_OPS = 24

TALBOT_GRID = np.geomspace(0.05, 2.0, 20).tolist()  # the `verify laplace-oracle` grid
TALBOT_BESSEL_NUS = (-0.5, 0.0, 0.5, 1.0)
TALBOT_M = 64
RECIPROCITY_S = [10.0**k for k in range(-2, 5)]
INTERCONVERSION_GRID = [0.1, 0.5, 1.0, 2.0]
INTERCONVERSION_NQUAD = 2000
SHORT_TIME_GRID = [0.01, 0.02, 0.05, 0.1, 0.2]
CM_TIMES = (0.1, 0.5, 1.0, 2.0)
CM_STEP = 0.02
ZERO_TABLE_SIZE = 200  # TruncationPolicy().n_max: the table every curve uses

SIM_DT = 1e-3  # the Bessel convolution refuses dt < 1e-3
SIM_SIZES = (1_000, 2_000, 4_000, 8_000, 16_000)
# O(n^2) costs spread the latencies thinly; a block of stepping ops at one
# size, whose cost does not depend on the parameters, holds the median.
SIM_MEDIAN_SIZE = 4_000
SIM_MEDIAN_REPEATS = 6
# Likewise at the largest size, so the tail (eleventh-largest of each op's two
# fastest samples) falls inside that block and not on the edge below it.
SIM_TAIL_SIZE = 16_000
SIM_TAIL_REPEATS = 3
LOAD_SHAPES = ("step", "ramp", "sine")

FIGURE_SHA256 = {
    1: "caa354f4d312660297a37a47d81b156dfe9550c6ae74194288ee2cae088d80f2",
    2: "393ce359f683e4fb3193657ebde3dbd7b05c1713d435dee809f02acf2956f177",
    3: "2b521d14504acd982e0e837a7465649a1e41fdc92662fe72e09b76b5cf47d897",
    4: "30c35d638c2c01afef4ddd0c8ccaea7bbb0a1913466bc8b6a6179f663bd253c9",
}
CLI_BIG_POINTS = 100_000
CLI_SIM_POINTS = 1_000
CLI_TIMEOUT_S = 120
CHECK_POINTS = 24

WORKLOADS = ("curves", "verify", "simulate", "cli")


# ---------------------------------------------------------------------------
# op lists
# ---------------------------------------------------------------------------


def _stratified(rng, lo, hi, k):
    """k draws, one uniform in each of k equal bands of [lo, hi), shuffled."""
    width = (hi - lo) / k
    vals = [lo + (i + rng.random()) * width for i in range(k)]
    rng.shuffle(vals)
    return vals


def _coeff_pairs(rng, k):
    return list(zip(_stratified(rng, *COEFF_RANGE, k), _stratified(rng, *COEFF_RANGE, k)))


def bessel(nu):
    return {"family": "bessel", "nu": nu}


def asymptotic(nu):
    return {"family": "asymptotic", "nu": nu}


def fmax(a1, b1):
    return {"family": "fmax", "a1": a1, "b1": b1}


def _check_idx(rng, n, k=CHECK_POINTS):
    """Indices the checker compares: both ends, an even spread, random fill."""
    idx = {round(i * (n - 1) / (k // 2 - 1)) for i in range(k // 2)}
    while len(idx) < min(n, k):
        idx.add(rng.randrange(n))
    return sorted(idx)


def _curve(rng, params, fn, range_name, n, spacing=None):
    t0, t1 = CURVE_RANGES[range_name]
    return {
        "kind": "curve", "params": params, "fn": fn, "range": range_name,
        "t0": t0, "t1": t1, "n": n, "spacing": spacing or rng.choice(SPACINGS),
        "check_idx": _check_idx(rng, n),
    }


def curves_ops(rng, tiny=False):
    # Orders and coefficients are drawn once per seed, one per band, and used
    # round-robin, so each seed's ops cover the parameter range evenly.
    nu = itertools.cycle(_stratified(rng, *NU_RANGE, 4))
    coeff = itertools.cycle(_coeff_pairs(rng, 2))
    ops = [_curve(rng, bessel(next(nu)), "G", "wide", CURVE_HUGE, "log")
           for _ in range(0 if tiny else CURVE_HUGE_OPS)]
    ops += [_curve(rng, bessel(next(nu)), "G", "long", CURVE_MEDIAN, "log")
            for _ in range(0 if tiny else CURVE_MEDIAN_OPS)]
    # The small list keeps two sizes of at least 1000 points, so traced runs of
    # the other workloads can still fit the series' scaling exponent.
    bessel_sizes = (1_000, 10_000) if tiny else CURVE_BESSEL_SIZES
    for fn in ("J", "G"):
        closed_sizes = (1_000, 10_000) if tiny else CURVE_CLOSED_SIZES[fn]
        for range_name in CURVE_RANGES:
            for n in bessel_sizes:
                ops.append(_curve(rng, bessel(next(nu)), fn, range_name, n))
            for n in closed_sizes:
                ops.append(_curve(rng, asymptotic(next(nu)), fn, range_name, n))
                ops.append(_curve(rng, fmax(*next(coeff)), fn, range_name, n))
    rng.shuffle(ops)
    return ops


def verify_ops(rng, tiny=False):
    nus = _stratified(rng, *NU_RANGE, 2)
    coeffs = _coeff_pairs(rng, 2)
    grid = TALBOT_GRID
    # A Bessel inversion costs 0.2 s at t = 2 and 0.8 s at t = 0.05, so the
    # times are fixed and spread over the grid, and the seed only decides
    # which (order, function) pair is inverted at which time.
    combos = [(nu, fn) for nu in TALBOT_BESSEL_NUS for fn in ("J", "G")]
    last = len(grid) - 1
    bessel_ts = grid[-1:] if tiny else [grid[round(i * last / 7)] for i in range(8)]
    rng.shuffle(combos)
    ops = [{"kind": "talbot", "params": bessel(nu), "fn": fn, "t": t}
           for t, (nu, fn) in zip(bessel_ts, combos)]
    closed_ts = grid[-1:] if tiny else grid[::2]
    closed = [(p, fn) for p in (asymptotic(nus[0]), fmax(*coeffs[0])) for fn in ("J", "G")]
    closed = (closed * len(closed_ts))[:len(closed_ts)]
    rng.shuffle(closed)
    ops += [{"kind": "talbot", "params": p, "fn": fn, "t": t}
            for t, (p, fn) in zip(closed_ts, closed)]
    reciprocity = [bessel(nus[0]), rng.choice([asymptotic(nus[1]), fmax(*coeffs[1])])]
    interconversion = [bessel(nus[1]), rng.choice([asymptotic(nus[0]), fmax(*coeffs[1])])]
    if tiny:
        reciprocity, interconversion, nus = reciprocity[:1], interconversion[-1:], nus[:1]
    ops += [{"kind": "reciprocity", "params": p, "s": RECIPROCITY_S} for p in reciprocity]
    ops += [{"kind": "interconversion", "params": p, "grid": INTERCONVERSION_GRID,
             "n_quad": INTERCONVERSION_NQUAD} for p in interconversion]
    for nu in nus:
        ops.append({"kind": "short_time", "nu": nu, "grid": SHORT_TIME_GRID})
        ops.append({"kind": "cm", "nu": nu, "times": CM_TIMES, "h": CM_STEP})
        ops.append({"kind": "zeros", "nu": nu, "n": ZERO_TABLE_SIZE,
                    "check_idx": _check_idx(rng, ZERO_TABLE_SIZE)})
    rng.shuffle(ops)
    return ops


def _load(rng, kind, n, shapes):
    return {"kind": kind, "n": n, "dt": SIM_DT, "shape": rng.choice(shapes),
            "amp": rng.uniform(0.5, 2.0), "omega": rng.uniform(0.5, 2.0)}


def simulate_ops(rng, tiny=False):
    nu = itertools.cycle(_stratified(rng, *NU_RANGE, 4))
    coeff = itertools.cycle(_coeff_pairs(rng, 2))
    ops = []
    # Strain loads need G kernels, which cost more than J for the closed
    # forms; alternating the load kind keeps that mix the same for every seed.
    kind = itertools.cycle(("strain", "stress"))
    for n in SIM_SIZES[:2] if tiny else SIM_SIZES:
        repeats = {SIM_MEDIAN_SIZE: SIM_MEDIAN_REPEATS, SIM_TAIL_SIZE: SIM_TAIL_REPEATS}
        repeats = 1 if tiny else repeats.get(n, 1)
        for load_kind in ("strain", "stress") * repeats:
            ops.append({"kind": "stepping", "params": asymptotic(next(nu)),
                        "load": _load(rng, load_kind, n, LOAD_SHAPES),
                        "check_idx": _check_idx(rng, n)})
        for params in (bessel(next(nu)), asymptotic(next(nu)), fmax(*next(coeff))):
            # The Bessel family has no independent reference for a sine
            # response; step and ramp responses are exact primitives.
            shapes = LOAD_SHAPES[:2] if params["family"] == "bessel" else LOAD_SHAPES
            ops.append({"kind": "convolution", "params": params,
                        "load": _load(rng, next(kind), n, shapes),
                        "check_idx": _check_idx(rng, n)})
    # No shuffle: the order of large allocations moves glibc's mmap threshold
    # and with it the peak RSS by 10 %.
    return ops


def _family_args(params):
    if params["family"] == "fmax":
        return ["--family", "fmax", "--a1", repr(params["a1"]), "--b1", repr(params["b1"])]
    return ["--family", params["family"], "--nu", repr(params["nu"])]


def _cli(sub, args, expect=0, **extra):
    return {"kind": "cli", "sub": sub, "args": [sub] + args, "expect": expect, **extra}


def _cli_curve(rng, params, fn, range_name, n, extra_args=(), sub_tag=None):
    t0, t1 = CURVE_RANGES[range_name]
    spacing = rng.choice(SPACINGS)
    args = _family_args(params) + ["--fn", fn, "--t-start", repr(t0), "--t-end", repr(t1),
                                   "--points", str(n), "--spacing", spacing, *extra_args]
    curve = {"params": params, "fn": fn, "t0": t0, "t1": t1, "n": n, "spacing": spacing}
    return _cli("eval", args, curve=curve, check_idx=_check_idx(rng, n), tag=sub_tag)


def cli_ops(rng, tiny=False):
    nus = _stratified(rng, *NU_RANGE, 4)
    coeffs = _coeff_pairs(rng, 2)
    closed = [asymptotic(nus[2]), fmax(*coeffs[0])]
    ops = [_cli("eval", ["--figure", str(k)], sha256=FIGURE_SHA256[k]) for k in (1, 2, 3, 4)]
    for params in (bessel(nus[0]), rng.choice(closed)):
        ops.append(_cli_curve(rng, params, rng.choice("JG"), rng.choice(list(CURVE_RANGES)),
                              rng.choice((100, 1000))))
    ops.append(_cli_curve(rng, bessel(nus[1]), rng.choice("JG"), "wide", CLI_BIG_POINTS,
                          ("--out", "{work}/big.csv")))
    verify = [("reciprocity", _family_args(bessel(nus[0]))),
              ("zeros", ["--nu", repr(nus[1])]),
              ("asymptotics", ["--nu", repr(nus[2])]),
              ("cm", ["--nu", repr(nus[3])]),
              ("interconversion", _family_args(rng.choice(closed + [bessel(nus[0])])))]
    for i, (check, args) in enumerate(verify):
        ops.append(_cli("verify", ["--check", check, *args, "--json", f"{{work}}/verify{i}.json"],
                        json=f"verify{i}.json"))
    for i, (method, params) in enumerate((("stepping", asymptotic(nus[3])),
                                          ("convolution", rng.choice(closed)))):
        load = _load(rng, rng.choice(("strain", "stress")), CLI_SIM_POINTS, LOAD_SHAPES)
        ops.append(_cli("simulate", _family_args(params) + [
            "--input", f"{{work}}/load{i}.csv", "--kind", load["kind"], "--method", method],
            method=method, params=params, load=load, input=f"load{i}.csv",
            check_idx=_check_idx(rng, CLI_SIM_POINTS)))
    ops.append(_cli("zeros", ["--nu", repr(nus[0]), "--n", str(ZERO_TABLE_SIZE),
                              "--cache-dir", "{work}/zeros"],
                    nu=nus[0], check_idx=_check_idx(rng, ZERO_TABLE_SIZE)))
    cache_nu = nus[2]
    for tag, cache_dir in (("zero_cache_cold", "{fresh}"), ("zero_cache_warm", "{work}/warm")):
        ops.append(_cli_curve(rng, bessel(cache_nu), "J", "wide", 1000,
                              ("--cache-dir", cache_dir), sub_tag=tag))
    ops.append(_cli("eval", _family_args(bessel(nus[3])) + [
        "--t-start", "1e-4", "--t-end", "1.0", "--spacing", "log"], expect=3))
    ops.append(_cli("eval", ["--family", "fmax", "--a1", repr(coeffs[1][0])], expect=2))
    if tiny:
        # figure 1, one small curve, verify reciprocity, stepping, zeros, the
        # cold and warm cache runs and both refusals.
        ops = [ops[i] for i in (0, 4, 7, 12, 14, 15, 16, 17, 18)]
    rng.shuffle(ops)
    return ops


GENERATORS = {"curves": curves_ops, "verify": verify_ops,
              "simulate": simulate_ops, "cli": cli_ops}


def make_ops(workload, seed, tiny=False):
    rng = random.Random(f"viscobessel-bench:{workload}:{seed}")
    return GENERATORS[workload](rng, tiny)


def ops_digest(ops) -> str:
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()


def zero_orders(ops):
    """Orders of every zero table the in-process ops read (J needs nu+2, G nu)."""
    orders = set()
    for op in ops:
        params = op.get("params") or {}
        nu = op.get("nu", params.get("nu"))
        if params.get("family", "bessel") == "bessel" and nu is not None and op["kind"] != "cli":
            orders.update((float(nu), float(nu) + 2.0))
    return sorted(orders)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def curve_grid(spec):
    if spec["spacing"] == "log":
        return np.geomspace(spec["t0"], spec["t1"], spec["n"])
    return np.linspace(spec["t0"], spec["t1"], spec["n"])


def load_samples(load):
    n, dt, amp = load["n"], load["dt"], load["amp"]
    ts = dt * np.arange(n)
    if load["shape"] == "step":
        return np.full(n, amp)
    if load["shape"] == "ramp":
        return amp * ts / ts[-1]
    return amp * np.sin(load["omega"] * ts)


def write_load_csv(load, path):
    vals = load_samples(load)
    lines = ["t,value"] + [f"{k * load['dt']!r},{v!r}" for k, v in enumerate(vals.tolist())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


class Runner:
    """Runs ops against the viscobessel package found on ``sys.path``.

    ``prepare`` builds an op's inputs, ``execute`` is the timed call and
    ``sample`` keeps what the checker needs.  Every call into a viscobessel
    layer sits inside a span named ``<module path>.<function>``.
    """

    def __init__(self, tracer, work_dir, src_dir):
        from viscobessel import fracsim, laplace, models
        from viscobessel.specfun import bessel_j, zero_table

        self.tracer = tracer
        self.work = Path(work_dir).resolve()
        self.src = Path(src_dir).resolve()
        self.fracsim, self.laplace, self.models = fracsim, laplace, models
        self.bessel_j, self.zero_table = bessel_j, zero_table
        self._fresh = 0

    def params(self, spec):
        return self.models.ModelParams(**spec)

    # -- set-up ------------------------------------------------------------

    def build_tables(self, orders):
        for order in orders:
            with self.tracer.span("specfun.zeros.build", order=order):
                self.zero_table(order, ZERO_TABLE_SIZE)

    def setup_cli(self, ops):
        """Write load CSVs and fill the warm zero cache (caches fill before timing)."""
        self.work.mkdir(parents=True, exist_ok=True)
        for op in ops:
            if op.get("input"):
                write_load_csv(op["load"], self.work / op["input"])
            if op.get("tag") == "zero_cache_warm":
                proc = self.run_cli(self.cli_args(op))
                if proc.returncode != 0:
                    raise RuntimeError(f"warming the zero cache failed: {proc.stderr[-500:]!r}")

    # -- one op -------------------------------------------------------------

    def prepare(self, op):
        kind = op["kind"]
        if kind == "curve":
            return curve_grid(op)
        if kind in ("stepping", "convolution"):
            load = op["load"]
            return self.fracsim.LoadHistory(load["kind"], load["dt"], tuple(load_samples(load)))
        if kind == "cli":
            return self.cli_args(op)
        return None

    def execute(self, op, inputs):
        return getattr(self, "_run_" + op["kind"])(op, inputs)

    def _span_family(self, params):
        return "models.bessel_family" if params.family == "bessel" else "models.maxwell"

    def _run_curve(self, op, ts):
        params = self.params(op["params"])
        fn = self.models.eval_J_curve if op["fn"] == "J" else self.models.eval_G_curve
        with self.tracer.span(f"{self._span_family(params)}.{op['fn']}_curve", n=len(ts)):
            return fn(params, ts)

    def _run_talbot(self, op, _):
        params = self.params(op["params"])
        sfn = self.models.laplace_sJ if op["fn"] == "J" else self.models.laplace_sG
        node = ("specfun.bessel.node" if params.family == "bessel" else "models.maxwell.node")
        span = self.tracer.span

        def transform(s):
            with span(node):
                return sfn(params, s) / s

        F = self.laplace.LaplaceFunction(transform, f"{op['fn']}~")
        with span("laplace.invert_talbot", family=params.family):
            inv = self.laplace.invert_talbot(F, op["t"], TALBOT_M)
        direct_fn = self.models.eval_J_curve if op["fn"] == "J" else self.models.eval_G_curve
        with span(f"{self._span_family(params)}.{op['fn']}_curve", n=1):
            direct = float(direct_fn(params, [op["t"]])[0])
        return {"inv": inv, "direct": direct}

    def _run_reciprocity(self, op, _):
        params = self.params(op["params"])
        with self.tracer.span("models.checks.reciprocity_residual"):
            return self.models.reciprocity_residual(params, op["s"])

    def _run_interconversion(self, op, _):
        params = self.params(op["params"])
        with self.tracer.span("fracsim.interconversion_check", family=params.family):
            return self.fracsim.interconversion_check(params, op["grid"], op["n_quad"])

    def _run_short_time(self, op, _):
        with self.tracer.span("models.checks.short_time_agreement"):
            return self.models.short_time_agreement(op["nu"], op["grid"])

    def _run_cm(self, op, _):
        # The `verify --check cm` stencil: five single-point calls per time.
        values = []
        for t in op["times"]:
            for k in range(-2, 3):
                with self.tracer.span("models.bessel_family.memory_phi_curve", n=1):
                    values.append(float(self.models.memory_phi_curve(op["nu"], [t + k * op["h"]])[0]))
        return values

    def _run_zeros(self, op, _):
        with self.tracer.span("specfun.zeros.zero_table"):
            table = self.zero_table(op["nu"], op["n"])
        with self.tracer.span("specfun.bessel.bessel_j", n=len(table)):
            residual = max(abs(self.bessel_j(op["nu"], z)) for z in table.zeros)
        return {"table": table, "residual": residual,
                "gap": table.rayleigh_limit() - table.rayleigh_partial(),
                "bound": table.rayleigh_tail_bound()}

    def _run_stepping(self, op, load):
        with self.tracer.span("fracsim.simulate_asymptotic", n=len(load.samples)):
            return self.fracsim.simulate_asymptotic(op["params"]["nu"], load)

    def _run_convolution(self, op, load):
        params = self.params(op["params"])
        with self.tracer.span("fracsim.convolve_response", n=len(load.samples)):
            return self.fracsim.convolve_response(params, load)

    def time_kernel(self, op):
        """The kernel calls `convolve_response` makes, timed on their own (traced runs)."""
        params = self.params(op["params"])
        load = op["load"]
        grid = load["dt"] * np.arange(load["n"])
        ev = self.models.evaluate
        if load["kind"] == "stress":
            curve, primitive = ev.eval_J_curve, ev.creep_integral_curve
        else:
            curve, primitive = ev.eval_G_curve, ev.relax_integral_curve
        with self.tracer.span("fracsim.kernel", n=load["n"]):
            curve(params, grid[1:])
            primitive(params, grid)

    # -- cli ------------------------------------------------------------------

    def cli_args(self, op):
        args = []
        for a in op["args"]:
            if a == "{fresh}":
                self._fresh += 1
                a = f"{{work}}/cold{self._fresh}"
            args.append(a.replace("{work}", str(self.work)))
        return args

    def cli_env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        env["VISCOBESSEL_CACHE_DIR"] = str(self.work / "default-cache")
        return env

    def run_cli(self, args):
        return subprocess.run([sys.executable, "-m", "viscobessel.cli", *args],
                              capture_output=True, cwd=self.work, env=self.cli_env(),
                              timeout=CLI_TIMEOUT_S)

    def _run_cli(self, op, args):
        with self.tracer.span(f"cli.{op['sub']}", tag=op.get("tag")):
            return self.run_cli(args)

    # -- what the checker keeps -----------------------------------------------

    def sample(self, op, out):
        kind = op["kind"]
        if kind == "curve":
            if len(out) != op["n"]:
                return {"values": None}
            return {"values": np.asarray(out)[op["check_idx"]].tolist()}
        if kind in ("stepping", "convolution"):
            samples = out.samples
            if len(samples) != op["load"]["n"]:
                return {"values": None}
            return {"values": [samples[i] for i in op["check_idx"]], "kind": out.kind}
        if kind == "interconversion":
            return {"max_error": out.max_error, "errors": list(out.errors)}
        if kind == "short_time":
            return {"residuals": list(out.residuals), "consistent": out.consistent}
        if kind == "zeros":
            zeros = out["table"].zeros
            return {"zeros": [zeros[i] for i in op["check_idx"]], "count": len(zeros),
                    **{k: out[k] for k in ("residual", "gap", "bound")}}
        if kind == "cli":
            return self._sample_cli(op, out)
        return out

    def _sample_cli(self, op, proc):
        rec = {"code": proc.returncode, "stderr": proc.stderr[-300:].decode(errors="replace")}
        data = proc.stdout
        if "--out" in op["args"] and proc.returncode == 0:
            data = (self.work / "big.csv").read_bytes()
        rec["bytes"] = len(data)
        if proc.returncode != 0:
            return rec
        if "sha256" in op:
            rec["sha256"] = hashlib.sha256(data).hexdigest()
        lines = data.decode("ascii", errors="replace").splitlines()
        if "curve" in op or "load" in op:
            rec["header"] = lines[0] if lines else ""
            rows = lines[1:]
            rec["rows"] = len(rows)
            rec["values"] = [[float(x) for x in rows[i].split(",")] if i < len(rows) else None
                             for i in op["check_idx"]]
        if "json" in op:
            rec["records"] = json.loads((self.work / op["json"]).read_text())
        if op["sub"] == "zeros":
            zeros = [float(line.split()[1]) for line in lines]
            rec["count"] = len(zeros)
            rec["zeros"] = [zeros[i] if i < len(zeros) else None for i in op["check_idx"]]
        return rec
