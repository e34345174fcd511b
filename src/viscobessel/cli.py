"""Command-line front end.

Subcommands:
  eval      material-function curves as CSV (incl. figure presets 1-4)
  verify    consistency checks with a pass/fail table and JSON summary
  simulate  response of a load history (Caputo stepping or convolution)
  zeros     print the first zeros of a Bessel function J_nu

The checks are the table models.checks.CHECKS.  The simulators (fracsim),
the Talbot oracle (laplace) and json are imported by the subcommands and
checks that use them, so that eval and zeros load none of them.

Exit codes: 0 success, 1 verification check failed (or stdout closed early),
2 usage/invalid input (among them a Bessel-family nu above 6, or a zero table
above order 8), 3 numerical-domain refusal (series floor, grid violation,
exhausted table), 4 computation failure (root finder, inversion, overflow).

run() is the process entry of `python -m viscobessel.cli` and the installed
`viscobessel` script: it calls main(), flushes stdout and stderr and ends the
process with os._exit, skipping the interpreter's teardown (every file main()
writes is closed before it returns).  A reader that closes stdout early
(`| head`) ends it with exit 1 and no traceback.  Embedders call main(argv),
which returns the exit code and leaves the interpreter running.
"""

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import (DomainError, GridError, InversionError, RootFindError, SeriesRefusalError,
                     TableExhaustedError)
from .csvout import write_csv
from .models import DEFAULT_POLICY, ModelParams, TruncationPolicy, eval_G_curve, eval_J_curve
from .models.params import FAMILIES, PARAMS
from .models.checks import CHECKS, run_check
from .specfun import zero_table

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
    if args.cache_dir is not None:
        print("warning: --cache-dir is ignored: zero tables are no longer cached on disk",
              file=sys.stderr)
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


def run():
    """Process entry: main()'s exit code, then os._exit, without teardown.  An
    exception main() raises (SystemExit from argparse among them) takes the
    interpreter's usual exit."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, as Python's signal docs
        # advise for SIGPIPE, so that no later flush of its buffer can raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.stderr.flush()
    os._exit(code)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viscobessel",
        description="Material functions and simulations of Bessel-type and "
        "fractional Maxwell viscoelastic models (non-dimensional units).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a material-function curve to CSV")
    _add_family_flags(p_eval)
    # None until given, so that --figure can refuse them; _CURVE_DEFAULTS holds their defaults
    p_eval.add_argument("--fn", choices=("J", "G"), help="which material function")
    p_eval.add_argument("--t-start", type=float)
    p_eval.add_argument("--t-end", type=float)
    p_eval.add_argument("--points", type=int)
    p_eval.add_argument("--spacing", choices=("linear", "log"))
    p_eval.add_argument("--figure", type=int, choices=(1, 2, 3, 4), help="emit a figure-reproduction CSV preset")
    p_eval.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    p_eval.add_argument("--gnuplot", action="store_true", help="also write a <out>.gp plot script")
    _add_policy_flags(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run a consistency check suite")
    p_verify.add_argument(
        "--check",
        required=True,
        choices=tuple(CHECKS),
    )
    _add_family_flags(p_verify)
    p_verify.add_argument("--n", type=int, help="zeros per table (zeros check only; default 200)")
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

    p_zeros = sub.add_parser("zeros", help="print the first --n zeros of J_nu")
    p_zeros.add_argument("--nu", type=float, required=True)
    p_zeros.add_argument("--n", type=int, required=True)
    p_zeros.set_defaults(func=_cmd_zeros)

    for p in sub.choices.values():  # deprecated; still parsed so that old command lines run
        p.add_argument("--cache-dir", help="ignored: zero tables are no longer cached on disk")

    return parser


def _add_family_flags(p):
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--nu", type=float, help="order parameter (bessel/asymptotic)")
    p.add_argument("--a1", type=float, help="fractional Maxwell coefficient a1")
    p.add_argument("--b1", type=float, help="fractional Maxwell coefficient b1")


def _add_policy_flags(p):
    p.add_argument("--tol", type=float, default=DEFAULT_POLICY.tol, help="series tail tolerance")
    p.add_argument("--n-max", type=int, default=DEFAULT_POLICY.n_max, help="max Dirichlet-series terms")
    p.add_argument("--t-floor", type=float, default=DEFAULT_POLICY.t_floor, help="series refusal floor")


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


# eval's curve flags past the family's, with their defaults; a figure fixes them all
_CURVE_DEFAULTS = {"fn": "J", "t_start": 0.0, "t_end": 2.0, "points": 100, "spacing": "linear"}


def _cmd_eval(args) -> int:
    policy = _policy(args)
    if args.gnuplot and args.out == "-":
        raise DomainError("--gnuplot writes <out>.gp next to --out, so it needs --out with a file")
    if args.figure is not None:
        given = [f"--{k.replace('_', '-')}" for k in ["family", *_FLAG_FAMILIES, *_CURVE_DEFAULTS]
                 if getattr(args, k) is not None]
        if given:
            raise DomainError(f"--figure {args.figure} takes no {', '.join(given)}")
        fn, ts, columns = _figure(args.figure, policy)
    else:
        fn, *grid = (v if getattr(args, k) is None else getattr(args, k)
                     for k, v in _CURVE_DEFAULTS.items())
        params = _params(args)
        ts = _grid(*grid)
        evaluate = eval_J_curve if fn == "J" else eval_G_curve
        columns = [(fn, evaluate(params, ts, policy))]
    header = "t," + ",".join(name for name, _ in columns)
    _write_csv(args.out, header, ts, *(values for _, values in columns))
    if args.gnuplot:
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


_FLAG_FAMILIES = {k: tuple(f for f in PARAMS if k in PARAMS[f]) for f in PARAMS for k in PARAMS[f]}


def _asked(args):
    """The params `verify` runs its check on: --family's, else the check's
    battery.  --family must be one the check covers.  Without it, a parameter
    flag asks about the families that take it (above), and as it names no
    single one, every family the check covers must take it; else it is a
    usage error.  The battery runs with the flags' values, each distinct
    entry once.  --n sizes the tables of a battery whose every entry has one
    (zeros); any other check refuses it."""
    check = CHECKS[args.check]
    covers = " and ".join(check.covers)
    if args.n is not None and not all(isinstance(p, tuple) and "n" in p[1] for p in check.battery):
        raise DomainError(f"--check {args.check} takes no --n (zeros per table, zeros check only)")
    if args.family is not None:
        if args.family not in check.covers:
            raise DomainError(f"--check {args.check} covers {covers} only, not {args.family}")
        params = _params(args)  # validates --family's flags; a labelled battery takes its nu
        if isinstance(check.battery[0], ModelParams):
            return [params]
    flags = [k for k in _FLAG_FAMILIES if getattr(args, k) is not None]
    for k in flags:
        if set(_FLAG_FAMILIES[k]).isdisjoint(check.covers):
            raise DomainError(f"--check {args.check} covers {covers} only, "
                              f"not {' and '.join(_FLAG_FAMILIES[k])}")
    unfit = [f"--{k}" for k in flags if not set(check.covers) <= set(_FLAG_FAMILIES[k])]
    if unfit:
        raise DomainError(f"--check {args.check} needs --family with {' and '.join(unfit)}")
    given = {k: getattr(args, k) for k in flags + ["n"] if getattr(args, k) is not None}
    entries = [replace(p, **given) if isinstance(p, ModelParams)
               else (p[0], {k: given.get(k, v) for k, v in p[1].items()})
               for p in check.battery]
    return [p for i, p in enumerate(entries) if p not in entries[:i]]


def _cmd_verify(args) -> int:
    records = run_check(args.check, _asked(args), _policy(args))
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
    for n, z in enumerate(zero_table(args.nu, args.n).zeros, start=1):
        print(f"{n} {z!r}")
    return EXIT_OK


if __name__ == "__main__":
    run()
