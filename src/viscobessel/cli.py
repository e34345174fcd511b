"""Command-line front end.

Subcommands:
  eval      material-function curves as CSV (incl. figure presets 1-4)
  verify    consistency checks with a pass/fail table and JSON summary
  simulate  response of a load history (Caputo stepping or convolution)
  zeros     build/refresh a Bessel-zero cache file

The simulators (fracsim), the Talbot oracle (laplace) and json are imported
by the subcommands that use them, so that eval and zeros load none of them.

Exit codes: 0 success, 1 verification check failed, 2 usage/invalid input,
3 numerical-domain refusal (series floor, grid violation, exhausted table),
4 computation failure (root finder, inversion, overflow).
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .errors import (
    DomainError,
    GridError,
    InversionError,
    RootFindError,
    SeriesRefusalError,
    TableExhaustedError,
)
from .csvout import write_csv
from .models import (
    ModelParams,
    TruncationPolicy,
    eval_G_curve,
    eval_J_curve,
    laplace_sG,
    laplace_sJ,
    memory_phi_curve,
    reciprocity_residual,
    short_time_agreement,
)
from .models.evaluate import family_of
from .models.maxwell import relaxation_memory
from .specfun import bessel_j, bessel_j_zeros, cache_path, save_zero_table, zero_table
from .specfun.zeros import configure_cache

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3
EXIT_COMPUTE = 4

FIGURE_GRID_LOG = (1e-3, 2.0, 200)  # Bessel family figures (needs t >= t_floor)
FIGURE_GRID_LIN = (0.0, 2.0, 201)  # closed-form family figures
FIGURE_BESSEL_NUS = (-0.5, 0.0, 0.5, 1.0)
FIGURE_ASYM_NUS = (-0.8, 0.0, 0.5)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cache_dir", None):
        configure_cache(args.cache_dir)
    try:
        return args.func(args)
    except (SeriesRefusalError, TableExhaustedError, GridError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (RootFindError, InversionError, OverflowError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viscobessel",
        description="Material functions and simulations of Bessel-type and "
        "fractional Maxwell viscoelastic models (non-dimensional units).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a material-function curve to CSV")
    _add_family_flags(p_eval)
    p_eval.add_argument("--fn", choices=("J", "G"), default="J", help="which material function")
    p_eval.add_argument("--t-start", type=float, default=0.0)
    p_eval.add_argument("--t-end", type=float, default=2.0)
    p_eval.add_argument("--points", type=int, default=100)
    p_eval.add_argument("--spacing", choices=("linear", "log"), default="linear")
    p_eval.add_argument("--figure", type=int, choices=(1, 2, 3, 4), help="emit a figure-reproduction CSV preset")
    p_eval.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    p_eval.add_argument("--gnuplot", action="store_true", help="also write a <out>.gp plot script")
    _add_policy_flags(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run a consistency check suite")
    p_verify.add_argument(
        "--check",
        required=True,
        choices=("reciprocity", "interconversion", "laplace-oracle", "asymptotics", "cm", "zeros"),
    )
    _add_family_flags(p_verify)
    p_verify.add_argument("--n", type=int, default=200, help="zeros per table (zeros check)")
    p_verify.add_argument("--json", dest="json_path", help="write machine-readable summary here")
    _add_policy_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_sim = sub.add_parser("simulate", help="simulate the response to a load history CSV")
    _add_family_flags(p_sim)
    p_sim.add_argument("--input", required=True, help="load history CSV (header 't,value')")
    p_sim.add_argument("--kind", choices=("stress", "strain"), required=True, help="what the input samples are")
    p_sim.add_argument("--method", choices=("stepping", "convolution"), default="convolution")
    p_sim.add_argument("--out", default="-", help="response CSV path ('-' = stdout)")
    _add_policy_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_zeros = sub.add_parser("zeros", help="compute and cache Bessel-function zeros")
    p_zeros.add_argument("--nu", type=float, required=True)
    p_zeros.add_argument("--n", type=int, required=True)
    p_zeros.add_argument("--cache-dir", help="cache directory (default: $VISCOBESSEL_CACHE_DIR or ~/.cache/viscobessel)")
    p_zeros.set_defaults(func=_cmd_zeros)

    return parser


def _add_family_flags(p):
    p.add_argument("--family", choices=("bessel", "fmax", "asymptotic"))
    p.add_argument("--nu", type=float, help="order parameter (bessel/asymptotic)")
    p.add_argument("--a1", type=float, help="fractional Maxwell coefficient a1")
    p.add_argument("--b1", type=float, help="fractional Maxwell coefficient b1")


def _add_policy_flags(p):
    p.add_argument("--tol", type=float, default=1e-10, help="series tail tolerance")
    p.add_argument("--n-max", type=int, default=200, help="max Dirichlet-series terms")
    p.add_argument("--t-floor", type=float, default=1e-3, help="series refusal floor")
    p.add_argument("--cache-dir", help="zero-cache directory override")


def _policy(args) -> TruncationPolicy:
    return TruncationPolicy(tol=args.tol, n_max=args.n_max, t_floor=args.t_floor)


def _params(args) -> ModelParams:
    if args.family is None:
        raise DomainError("--family is required here")
    return ModelParams(args.family, nu=args.nu, a1=args.a1, b1=args.b1)


def _open_out(flag, path):
    """Open the file named by an output flag; one that cannot be created (a
    missing directory, say) is a usage error."""
    try:
        return open(path, "w", encoding="ascii")
    except OSError as exc:
        raise DomainError(f"cannot write {flag} {path}: {exc.strerror}") from exc


def _write_csv(out, header, ts, *columns):
    if out == "-":
        write_csv(sys.stdout, header, ts, *columns)
    else:
        with _open_out("--out", out) as fh:
            write_csv(fh, header, ts, *columns)


def _write_gnuplot(out: str, n_columns: int, ylabel: str):
    path = Path(out)
    gp = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        f"set ylabel '{ylabel}'",
        "set xlabel 't'",
        "plot " + ", ".join(f"'{path.name}' using 1:{c} with lines" for c in range(2, n_columns + 2)),
        "pause -1",
    ]
    path.with_suffix(path.suffix + ".gp").write_text("\n".join(gp) + "\n", encoding="ascii")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _grid(t_start, t_end, points, spacing):
    if points < 2:
        raise DomainError(f"need at least 2 points, got {points}")
    if not (math.isfinite(t_start) and math.isfinite(t_end)):
        raise DomainError(f"t-start and t-end must be finite, got {t_start!r}, {t_end!r}")
    if t_start < 0.0 or t_end <= t_start:
        raise DomainError("need 0 <= t-start < t-end")
    if spacing == "log":
        if t_start <= 0.0:
            raise DomainError("log spacing needs t-start > 0")
        return np.geomspace(t_start, t_end, points)
    return np.linspace(t_start, t_end, points)


def _cmd_eval(args) -> int:
    policy = _policy(args)
    if args.figure is not None:
        fn, ts, columns = _figure(args.figure, policy)
    else:
        fn = args.fn
        params = _params(args)
        ts = _grid(args.t_start, args.t_end, args.points, args.spacing)
        evaluate = eval_J_curve if fn == "J" else eval_G_curve
        columns = [(fn, evaluate(params, ts, policy))]
    header = "t," + ",".join(name for name, _ in columns)
    _write_csv(args.out, header, ts, *(values for _, values in columns))
    if args.gnuplot and args.out != "-":
        _write_gnuplot(args.out, len(columns), fn)
    return EXIT_OK


def _figure(fig, policy):
    """(function name, times, [(column name, values)]) of figure preset fig."""
    fn = "J" if fig in (1, 3) else "G"
    evaluate = eval_J_curve if fn == "J" else eval_G_curve
    columns = []
    if fig in (1, 2):
        ts = np.geomspace(*FIGURE_GRID_LOG)
        for nu in FIGURE_BESSEL_NUS:
            params = ModelParams("bessel", nu=nu)
            columns.append((f"{fn}[nu={nu:g}]", evaluate(params, ts, policy)))
    else:
        ts = np.linspace(*FIGURE_GRID_LIN)
        for nu in FIGURE_ASYM_NUS:
            params = ModelParams("asymptotic", nu=nu)
            columns.append((f"{fn}_as[nu={nu:g}]", evaluate(params, ts, policy)))
        ref = ModelParams("fmax", a1=1.0, b1=1.0)
        columns.append((f"{fn}_M[a1=1;b1=1]", evaluate(ref, ts, policy)))
    return fn, ts, columns


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _record(check, params, max_error, tolerance):
    if isinstance(params, ModelParams):
        family = params.family
        pdict = {k: getattr(params, k) for k in ("nu", "a1", "b1")
                 if getattr(params, k) is not None}
    else:
        family, pdict = params
    return {
        "check": check,
        "family": family,
        "params": pdict,
        "max_error": max_error,
        "tolerance": tolerance,
        "pass": bool(max_error <= tolerance),
    }


_EVERY_FAMILY = ("bessel", "asymptotic", "fmax")
_FLAG_FAMILIES = {"nu": ("bessel", "asymptotic"), "a1": ("fmax",), "b1": ("fmax",)}


def _asked(args, check, covers, battery=()):
    """The ModelParams `check` runs: --family's, else its default `battery`.
    --family must be one `check` covers.  Without it, a parameter flag asks
    about the families that take it (above), and as it names no single one,
    every family the check covers must take it; else it is a usage error."""
    if args.family is not None:
        if args.family not in covers:
            raise DomainError(f"--check {check} covers {' and '.join(covers)} only, "
                              f"not {args.family}")
        return [_params(args)]
    flags = [k for k in _FLAG_FAMILIES if getattr(args, k) is not None]
    for k in flags:
        if set(_FLAG_FAMILIES[k]).isdisjoint(covers):
            raise DomainError(f"--check {check} covers {' and '.join(covers)} only, "
                              f"not {' and '.join(_FLAG_FAMILIES[k])}")
    unfit = [f"--{k}" for k in flags if not set(covers) <= set(_FLAG_FAMILIES[k])]
    if unfit:
        raise DomainError(f"--check {check} needs --family with {' and '.join(unfit)}")
    return battery


def _check_reciprocity(args, policy):
    s_values = [10.0**k for k in range(-2, 5)]
    battery = [ModelParams("bessel", nu=nu) for nu in (-0.8, -0.5, 0.0, 0.5, 1.0)]
    battery += [ModelParams("asymptotic", nu=nu) for nu in (-0.8, 0.0, 0.5, 1.0)]
    battery.append(ModelParams("fmax", a1=1.0, b1=1.0))
    return [
        _record("reciprocity", p, reciprocity_residual(p, s_values), 1e-10)
        for p in _asked(args, "reciprocity", _EVERY_FAMILY, battery)
    ]


def _check_zeros(args, policy):
    _asked(args, "zeros", ("bessel",))
    nu = args.nu if args.nu is not None else 0.0
    table = zero_table(nu, args.n)
    residual = max(abs(bessel_j(nu, z)) for z in table.zeros)
    spacing_err = 0.0
    if len(table) > 51:
        spacing_err = max(
            abs((b - a) - math.pi)
            for a, b in zip(table.zeros[50:], table.zeros[51:])
        )
    gap = table.rayleigh_limit() - table.rayleigh_partial()
    records = [
        _record("zeros-residual", ("bessel", {"nu": nu, "n": args.n}), residual, 1e-9),
        _record(
            "zeros-rayleigh",
            ("bessel", {"nu": nu, "n": args.n}),
            gap if gap > 0.0 else math.inf,  # partial sum must stay below the limit
            table.rayleigh_tail_bound(),
        ),
    ]
    if spacing_err:
        records.append(
            _record("zeros-spacing", ("bessel", {"nu": nu, "n": args.n}), spacing_err, 0.01)
        )
    return records


def _check_laplace_oracle(args, policy):
    from .laplace import LaplaceFunction, invert_talbot

    (params,) = _asked(args, "laplace-oracle", _EVERY_FAMILY, [ModelParams("bessel", nu=0.0)])
    ts = np.geomspace(max(0.05, policy.t_floor), 2.0, 20)
    worst = 0.0
    j_curve = eval_J_curve(params, ts, policy)
    g_curve = eval_G_curve(params, ts, policy)
    for t, jv, gv in zip(ts, j_curve, g_curve):
        for tag, sfn, direct in (("J", laplace_sJ, jv), ("G", laplace_sG, gv)):
            F = LaplaceFunction(lambda s, sfn=sfn: sfn(params, s) / s, f"{tag}~")
            inv = invert_talbot(F, float(t), 64)
            worst = max(worst, abs(inv - direct) / abs(direct))
    return [_record("laplace-oracle", params, worst, 1e-6)]


def _check_interconversion(args, policy):
    from .fracsim import interconversion_check

    battery = [ModelParams("bessel", nu=0.0), ModelParams("asymptotic", nu=0.5),
               ModelParams("fmax", a1=1.0, b1=1.0)]
    grid = [0.1, 0.5, 1.0, 2.0]
    records = []
    for p in _asked(args, "interconversion", _EVERY_FAMILY, battery):
        rep = interconversion_check(p, grid, 2000, policy)
        tol = 1e-4 if p.family == "bessel" else 1e-5
        records.append(_record("interconversion", p, rep.max_error, tol))
    return records


def _check_asymptotics(args, policy):
    _asked(args, "asymptotics", ("bessel", "asymptotic"))
    nus = [args.nu] if args.nu is not None else [-0.5, 0.0, 1.0]
    grid = [0.01, 0.02, 0.05, 0.1, 0.2]
    records = []
    for nu in nus:
        rep = short_time_agreement(nu, grid, policy)
        # ratios are ordered by increasing t; r/sqrt(t) must grow with t, so
        # any drop from one grid point to the next is a violation.
        violation = max(
            [0.0] + [b - a for a, b in zip(rep.ratios[1:], rep.ratios[:-1])]
        )
        records.append(
            _record("asymptotics", ("bessel+asymptotic", {"nu": nu}), violation, 0.0)
        )
    return records


def _cm_signs(stencil, h):
    """Violation magnitude of the alternating-derivative pattern at the middle
    of five values spaced h apart."""
    stencil = np.asarray(stencil).tolist()
    d1 = (stencil[3] - stencil[1]) / (2 * h)
    d2 = (stencil[3] - 2 * stencil[2] + stencil[1]) / h**2
    d3 = (stencil[4] - 2 * stencil[3] + 2 * stencil[1] - stencil[0]) / (2 * h**3)
    d4 = (stencil[4] - 4 * stencil[3] + 6 * stencil[2] - 4 * stencil[1] + stencil[0]) / h**4
    worst = 0.0
    for order, d in enumerate((d1, d2, d3, d4), start=1):
        signed = d * (-1.0) ** order  # CM: (-1)^k f^(k) >= 0
        if signed < 0.0:
            worst = max(worst, -signed)
    return worst


def _check_cm(args, policy):
    _asked(args, "cm", ("bessel", "asymptotic"))
    h = 0.02
    stencils = np.add.outer((0.1, 0.5, 1.0, 2.0), np.arange(-2.0, 3.0) * h)  # a row per time
    records = []
    bessel_nus = [args.nu] if args.nu is not None else [-0.5, 0.0]
    for nu in bessel_nus if args.family in (None, "bessel") else ():
        rows = [[float(memory_phi_curve(nu, [t], policy)[0]) for t in row] for row in stencils]
        worst = max(_cm_signs(row, h) for row in rows)
        records.append(_record("cm-phi", ("bessel", {"nu": nu}), worst, 0.0))
    asym_nus = [args.nu] if args.nu is not None else [-0.8, 0.5]
    for nu in asym_nus if args.family in (None, "asymptotic") else ():
        p = ModelParams("asymptotic", nu=nu)
        rows = relaxation_memory(*family_of(p).law(p), stencils)  # one erfcx call
        worst = max(_cm_signs(row, h) for row in rows)
        records.append(_record("cm-asym-memory", ("asymptotic", {"nu": nu}), worst, 0.0))
    return records


_CHECKS = {
    "reciprocity": _check_reciprocity,
    "zeros": _check_zeros,
    "laplace-oracle": _check_laplace_oracle,
    "interconversion": _check_interconversion,
    "asymptotics": _check_asymptotics,
    "cm": _check_cm,
}


def _cmd_verify(args) -> int:
    policy = _policy(args)
    records = _CHECKS[args.check](args, policy)
    width = max(len(r["check"]) for r in records)
    for r in records:
        status = "PASS" if r["pass"] else "FAIL"
        pstr = ",".join(f"{k}={v:g}" for k, v in r["params"].items())
        print(
            f"{r['check']:<{width}}  {r['family']:<20} {pstr:<18} "
            f"max_error={r['max_error']:.3e}  tol={r['tolerance']:.1e}  {status}"
        )
    if args.json_path:
        import json

        with _open_out("--json", args.json_path) as fh:
            fh.write(json.dumps(records, indent=2) + "\n")
    return EXIT_OK if all(r["pass"] for r in records) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# simulate / zeros
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    from .fracsim import convolve_response, read_load_history, step_response

    policy = _policy(args)
    params = _params(args)
    try:
        load = read_load_history(args.input, args.kind)
    except OSError as exc:
        raise DomainError(f"cannot read --input {args.input}: {exc.strerror}") from exc
    if args.method == "stepping":
        response = step_response(params, load)
    else:
        response = convolve_response(params, load, policy)
    _write_csv(args.out, "t,value", response.times, response.samples)
    return EXIT_OK


def _cmd_zeros(args) -> int:
    # zero_table would read this file under --cache-dir, or write it a second time
    table = bessel_j_zeros(args.nu, args.n)
    path = save_zero_table(table, cache_path(args.nu, args.n, args.cache_dir or None))
    for n, z in enumerate(table.zeros, start=1):
        print(f"{n} {z!r}")
    print(f"cached: {path}", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
