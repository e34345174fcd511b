import csv
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import viscobessel
from viscobessel.cli import main
from viscobessel.fracsim import LoadHistory, write_history


def run(args):
    return main(args)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("argv", [["eval"], ["verify", "--check", "cm"],
                                  ["simulate", "--input", "in.csv", "--kind", "stress"]],
                         ids=lambda argv: argv[0])
def test_defaults_come_from_the_library(argv):
    from viscobessel.cli import _build_parser, _policy
    from viscobessel.models import DEFAULT_POLICY, FAMILIES

    parser = _build_parser()
    assert _policy(parser.parse_args(argv)) == DEFAULT_POLICY
    for family in FAMILIES:
        assert parser.parse_args([*argv, "--family", family]).family == family
    with pytest.raises(SystemExit):
        parser.parse_args([*argv, "--family", "maxwell"])


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_asymptotic_creep_endpoint(tmp_path):
    out = tmp_path / "curve.csv"
    rc = run(
        ["eval", "--family", "asymptotic", "--nu", "0", "--fn", "J",
         "--t-end", "2", "--points", "5", "--out", str(out)]
    )
    assert rc == 0
    rows = read_rows(out)
    assert rows[0] == ["t", "J"]
    assert float(rows[-1][0]) == 2.0
    expected = 1.0 + (4.0 / math.sqrt(math.pi)) * math.sqrt(2.0)
    assert float(rows[-1][1]) == pytest.approx(expected, rel=1e-12)


def test_eval_fmax_relaxation_endpoint(tmp_path):
    out = tmp_path / "curve.csv"
    rc = run(
        ["eval", "--family", "fmax", "--a1", "1", "--b1", "1", "--fn", "G",
         "--t-end", "1", "--points", "2", "--out", str(out)]
    )
    assert rc == 0
    rows = read_rows(out)
    assert rows[0] == ["t", "G"]
    assert float(rows[-1][1]) == pytest.approx(0.4275836, abs=1e-7)


def test_eval_curve_round_trips_through_parser(tmp_path):
    out = tmp_path / "curve.csv"
    run(
        ["eval", "--family", "asymptotic", "--nu", "0.5", "--fn", "G",
         "--t-end", "1.5", "--points", "40", "--out", str(out)]
    )
    rows = read_rows(out)
    assert rows[0] == ["t", "G"]
    assert len(rows) == 41
    # shortest round-trip repr: parsing loses nothing
    assert all(cell == repr(float(cell)) for row in rows[1:] for cell in row)
    ts, gs = np.array(rows[1:], dtype=float).T
    assert np.all(np.diff(ts) > 0.0) and np.all(np.diff(gs) <= 0.0)


def test_eval_bessel_below_floor_exits_3(tmp_path):
    rc = run(
        ["eval", "--family", "bessel", "--nu", "0", "--fn", "J",
         "--t-start", "0", "--t-end", "1", "--points", "10",
         "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 3


def test_refusal_messages_quote_plain_floats(tmp_path, capsys):
    cases = {"(smallest requested t = 0.0001)": ["--t-start", "1e-4"],
             "tol = 1e-10 at t = 0.001\n": ["--t-start", "0.001", "--n-max", "20"]}
    for quote, extra in cases.items():
        rc = run(["eval", "--family", "bessel", "--nu", "0", "--fn", "G", *extra,
                  "--t-end", "1", "--points", "3", "--spacing", "log",
                  "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("refused: ") and quote in err
        assert "np.float64" not in err


def test_eval_usage_errors_exit_2(tmp_path):
    assert run(["eval", "--family", "bessel", "--fn", "J"]) == 2  # missing nu
    assert run(["eval", "--family", "fmax", "--a1", "1", "--fn", "J"]) == 2
    assert run(["eval", "--family", "asymptotic", "--nu", "0", "--points", "1"]) == 2
    # family-parameter consistency: nu iff bessel/asymptotic
    assert run(["eval", "--family", "fmax", "--a1", "1", "--b1", "1", "--nu", "0"]) == 2
    assert run(["eval", "--family", "bessel", "--nu", "0", "--a1", "1",
                "--t-start", "0.1"]) == 2
    # every truncation keeps at least 8 terms, so a smaller table is refused
    assert run(["eval", "--family", "fmax", "--a1", "1", "--b1", "1", "--n-max", "7"]) == 2


@pytest.mark.parametrize("bounds", [["--t-end", "inf"], ["--t-start", "nan"],
                                    ["--t-start=-inf", "--spacing", "log"]])
def test_eval_nonfinite_time_bounds_exit_2_with_one_error_line(capsys, bounds):
    argv = ["eval", "--family", "fmax", "--a1", "1", "--b1", "1", "--points", "3", *bounds]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to the refusal
        assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: t-start and t-end must be finite")
    assert captured.err.count("\n") == 1


def test_eval_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["eval", "--figure", "1"]
    run(args + ["--out", str(a)])
    run(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("figure,fn,n_curves", [(1, "J", 4), (2, "G", 4), (3, "J", 4), (4, "G", 4)])
def test_figure_presets(tmp_path, figure, fn, n_curves):
    out = tmp_path / f"fig{figure}.csv"
    assert run(["eval", "--figure", str(figure), "--out", str(out)]) == 0
    rows = read_rows(out)
    header = rows[0]
    assert header[0] == "t"
    assert len(header) == n_curves + 1
    assert all(name.startswith(fn) for name in header[1:])
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    for col in range(1, n_curves + 1):
        diffs = np.diff(data[:, col])
        if fn == "J":
            assert np.all(diffs >= -1e-12)
        else:
            assert np.all(diffs <= 1e-12)


def test_figure_csvs_are_byte_identical(tmp_path):
    # the figure presets are pinned by sha256 in the benchmark's workloads
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for figure, digest in workloads.FIGURE_SHA256.items():
        out = tmp_path / f"fig{figure}.csv"
        assert run(["eval", "--figure", str(figure), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, figure


def test_figure_two_starts_near_unit_glass_modulus(tmp_path):
    out = tmp_path / "fig2.csv"
    run(["eval", "--figure", "2", "--out", str(out)])
    rows = read_rows(out)
    first = [float(v) for v in rows[1][1:]]
    # G(t_floor) = 1 - 4(nu+1) sqrt(t_floor/pi) + O(t_floor): all close to 1
    assert all(0.85 < v < 1.0 for v in first)


def test_gnuplot_script_emitted(tmp_path):
    out = tmp_path / "fig3.csv"
    run(["eval", "--figure", "3", "--out", str(out), "--gnuplot"])
    script = tmp_path / "fig3.csv.gp"
    assert script.exists()
    assert "plot" in script.read_text()


_FIGURE_CURVE_FLAGS = [
    (["--fn", "J", "--family", "fmax", "--a1", "1", "--b1", "1", "--points", "7"],
     "--family, --a1, --b1, --fn, --points"),
    *((flags, flags[0]) for flags in (["--family", "bessel"], ["--nu", "0"], ["--a1", "1"],
                                      ["--b1", "1"], ["--fn", "G"], ["--t-start", "0.1"],
                                      ["--t-end", "1"], ["--points", "7"], ["--spacing", "log"])),
]


@pytest.mark.parametrize("flags,named", _FIGURE_CURVE_FLAGS,
                         ids=[named for _, named in _FIGURE_CURVE_FLAGS])
def test_eval_figure_refuses_the_curve_flags_it_would_ignore(tmp_path, capsys, flags, named):
    # a figure preset fixes its family, function and grid; a curve flag next
    # to it is a usage error, not a figure written as if it were absent
    out = tmp_path / "fig.csv"
    capsys.readouterr()
    assert run(["eval", "--figure", "2", *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: --figure 2 takes no {named}\n"


@pytest.mark.parametrize("out", [[], ["--out", "-"]], ids=["default", "dash"])
def test_eval_gnuplot_to_stdout_is_refused(tmp_path, monkeypatch, capsys, out):
    # the plot script is written next to the CSV file, which stdout has not
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert run(["eval", "--figure", "3", "--gnuplot", *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    assert captured.err == ("error: --gnuplot writes <out>.gp next to --out, "
                            "so it needs --out with a file\n")


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------


def test_zeros_command_values_and_idempotence(capsys):
    assert run(["zeros", "--nu", "-0.5", "--n", "2"]) == 0
    out = capsys.readouterr().out
    out_lines = out.splitlines()
    assert float(out_lines[0].split()[1]) == pytest.approx(math.pi / 2, abs=1e-10)
    assert float(out_lines[1].split()[1]) == pytest.approx(3 * math.pi / 2, abs=1e-10)
    assert run(["zeros", "--nu", "-0.5", "--n", "2"]) == 0
    assert capsys.readouterr().out == out


_CACHE_DIR_IGNORED = "warning: --cache-dir is ignored: zero tables are no longer cached on disk\n"


@pytest.mark.parametrize("argv", [
    ["eval", "--figure", "2"],
    ["verify", "--check", "zeros"],
    ["simulate", "--family", "bessel", "--nu", "0", "--kind", "stress", "--input", "load.csv"],
    ["zeros", "--nu", "0", "--n", "200"],
], ids=lambda argv: argv[0])
def test_cache_dir_is_ignored_with_one_warning_line(tmp_path, monkeypatch, capsys, argv):
    # zero tables live in memory only; --cache-dir still parses so that old
    # command lines run, and changes no stdout byte.  A directory under a
    # file exited 2 while tables were cached on disk.
    monkeypatch.chdir(tmp_path)
    _write_step_load(tmp_path / "load.csv", dt=0.01, t_end=0.5)
    (tmp_path / "afile").write_text("")
    assert run(argv) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    for cache in (tmp_path / "cache", tmp_path / "afile" / "cache"):
        assert run([*argv, "--cache-dir", str(cache)]) == 0
        flagged = capsys.readouterr()
        assert flagged.out == plain.out
        assert flagged.err == _CACHE_DIR_IGNORED
        assert not cache.exists()


_EVAL_G0 = ["eval", "--family", "bessel", "--nu", "0", "--fn", "G", "--t-start", "0.1"]
_ZEROS_0 = ["zeros", "--nu", "0", "--n", "3"]
# Files a former on-disk zero cache may have left for order 0: its entry made
# a directory, a byte outside ASCII, and a well-formed table of wrong zeros.
_STALE_ENTRIES = {
    "a-directory": None,
    "non-ascii": b"viscobessel-zeros v1\nnu=0.0 n=1\n2.40\xc3\xa9\n",
    "wrong-zeros": b"viscobessel-zeros v1\nnu=0.0 n=3\n1.0\n2.0\n3.0\n",
}


def _stale_cache(cache, fault):
    entry = cache / "jzeros_nu0.0_acc1e-10.txt"
    if _STALE_ENTRIES[fault] is None:
        entry.mkdir(parents=True)
    else:
        cache.mkdir()
        entry.write_bytes(_STALE_ENTRIES[fault])
    return entry


@pytest.mark.parametrize("fault", sorted(_STALE_ENTRIES))
@pytest.mark.parametrize("argv", [_EVAL_G0, _ZEROS_0], ids=lambda argv: argv[0])
def test_a_former_zero_cache_is_neither_read_nor_touched(tmp_path, capsys, argv, fault):
    # these entries exited 2 (or, for wrong zeros, changed the output) while
    # tables were cached on disk; now the run ignores them
    assert run(argv) == 0
    plain = capsys.readouterr().out
    cache = tmp_path / "cache"
    entry = _stale_cache(cache, fault)
    assert run([*argv, "--cache-dir", str(cache)]) == 0
    flagged = capsys.readouterr()
    assert flagged.out == plain
    assert flagged.err == _CACHE_DIR_IGNORED
    assert list(cache.iterdir()) == [entry]
    if _STALE_ENTRIES[fault] is None:
        assert list(entry.iterdir()) == []
    else:
        assert entry.read_bytes() == _STALE_ENTRIES[fault]


@pytest.mark.parametrize("argv", [
    _EVAL_G0,
    ["verify", "--check", "zeros"],
    ["simulate", "--family", "bessel", "--nu", "0", "--kind", "stress", "--input", "load.csv"],
    _ZEROS_0,
], ids=lambda argv: argv[0])
def test_the_former_cache_env_var_is_not_read(tmp_path, monkeypatch, capsys, argv):
    # VISCOBESSEL_CACHE_DIR named the zero cache's directory; a stale table
    # there changes nothing, and no directory it names is made
    monkeypatch.chdir(tmp_path)
    _write_step_load(tmp_path / "load.csv", dt=0.01, t_end=0.5)
    assert run(argv) == 0
    plain = capsys.readouterr()
    entry = _stale_cache(tmp_path / "stale", "wrong-zeros")
    for env in (tmp_path / "stale", tmp_path / "absent"):
        monkeypatch.setenv("VISCOBESSEL_CACHE_DIR", str(env))
        assert run(argv) == 0
        assert capsys.readouterr() == plain
    assert not (tmp_path / "absent").exists()
    assert list((tmp_path / "stale").iterdir()) == [entry]
    assert entry.read_bytes() == _STALE_ENTRIES["wrong-zeros"]


def test_no_file_is_opened_or_replaced_but_those_the_flags_name(tmp_path, monkeypatch):
    # no zero table is read from or written to disk, with --cache-dir or without
    import builtins
    import io

    allowed = {str(tmp_path / name) for name in ("fig2.csv", "fig2.csv.gp", "cm.json")}

    def guard(real):
        def guarded(path, *args, **kwargs):
            if str(path) not in allowed:
                raise PermissionError(f"file I/O outside --out, --json and .gp: {path}")
            return real(path, *args, **kwargs)
        return guarded

    for module, name in ((builtins, "open"), (io, "open"), (os, "replace")):
        monkeypatch.setattr(module, name, guard(getattr(module, name)))
    runs = [["eval", "--figure", "2", "--out", str(tmp_path / "fig2.csv"), "--gnuplot"],
            ["zeros", "--nu", "0", "--n", "200"],
            ["verify", "--check", "cm", "--json", str(tmp_path / "cm.json")]]
    for argv in runs:
        for extra in ([], ["--cache-dir", str(tmp_path / "cache")]):
            assert run([*argv, *extra]) == 0, argv + extra
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cm.json", "fig2.csv", "fig2.csv.gp"]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _write_step_load(path, dt=1e-3, t_end=1.0):
    n = round(t_end / dt) + 1
    write_history(LoadHistory("stress", dt, tuple([1.0] * n)), path)


def test_simulate_stepping_step_stress(tmp_path):
    load_csv = tmp_path / "load.csv"
    _write_step_load(load_csv)
    out = tmp_path / "resp.csv"
    rc = run(
        ["simulate", "--family", "asymptotic", "--nu", "0", "--kind", "stress",
         "--method", "stepping", "--input", str(load_csv), "--out", str(out)]
    )
    assert rc == 0
    rows = read_rows(out)
    assert rows[0] == ["t", "value"]
    final = float(rows[-1][1])
    assert final == pytest.approx(1.0 + 4.0 / math.sqrt(math.pi), abs=5e-3)


def test_simulate_zero_load_zero_response(tmp_path):
    load_csv = tmp_path / "load.csv"
    write_history(LoadHistory("strain", 0.01, tuple([0.0] * 50)), load_csv)
    out = tmp_path / "resp.csv"
    rc = run(
        ["simulate", "--family", "asymptotic", "--nu", "0.5", "--kind", "strain",
         "--method", "stepping", "--input", str(load_csv), "--out", str(out)]
    )
    assert rc == 0
    values = [float(r[1]) for r in read_rows(out)[1:]]
    assert max(abs(v) for v in values) == 0.0


def test_simulate_methods_agree_on_smooth_load(tmp_path):
    dt = 1e-3
    ts = dt * np.arange(501)
    load_csv = tmp_path / "load.csv"
    write_history(LoadHistory("strain", dt, tuple(np.sin(ts))), load_csv)
    outs = []
    for method in ("stepping", "convolution"):
        out = tmp_path / f"{method}.csv"
        rc = run(
            ["simulate", "--family", "asymptotic", "--nu", "0", "--kind", "strain",
             "--method", method, "--input", str(load_csv), "--out", str(out)]
        )
        assert rc == 0
        outs.append(np.array([float(r[1]) for r in read_rows(out)[1:]]))
    assert np.max(np.abs(outs[0] - outs[1])) < 5e-4


def test_simulate_malformed_csv_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,value\n0.0,0.0\n0.001,not-a-number\n")
    rc = run(
        ["simulate", "--family", "asymptotic", "--nu", "0", "--kind", "stress",
         "--input", str(bad), "--out", str(tmp_path / "o.csv")]
    )
    assert rc == 2
    assert ":3" in capsys.readouterr().err


def test_simulate_nonuniform_grid_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    # the off-grid row is on file line 5, as the blank line 3 counts; a NaN
    # time is off the grid too
    for text, row, t in [("t,value\n0.0,0.0\n\n0.001,1.0\n0.003,2.0\n", 5, "0.003"),
                         ("t,value\n0.0,0.0\n0.001,1.0\nnan,1.0\n", 4, "nan")]:
        bad.write_text(text)
        rc = run(
            ["simulate", "--family", "asymptotic", "--nu", "0", "--kind", "stress",
             "--input", str(bad), "--out", str(tmp_path / "o.csv")]
        )
        assert rc == 3
        assert capsys.readouterr().err == (
            f"refused: {bad}: non-uniform grid at row {row} (t = {t}, expected 0.002)\n")


def test_unreadable_input_and_unwritable_out_exit_2_with_one_error_line(tmp_path, capsys):
    load_csv = tmp_path / "load.csv"
    _write_step_load(load_csv, dt=0.01, t_end=0.1)
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"t,value\n0.0,0.0\n0.01,\xe91.0\n")
    missing = tmp_path / "missing.csv"
    no_dir = tmp_path / "no-such-dir" / "out.csv"
    sim = ["simulate", "--family", "fmax", "--a1", "1", "--b1", "1", "--kind", "stress"]
    cases = [
        ([*sim, "--input", str(missing)], f"error: cannot read --input {missing}: "),
        ([*sim, "--input", str(latin1)], f"error: {latin1}:3: malformed row '0.01,\\\\xe91.0'"),
        ([*sim, "--input", str(load_csv), "--out", str(no_dir)],
         f"error: cannot write --out {no_dir}: "),
        (["eval", "--figure", "3", "--out", str(no_dir)], f"error: cannot write --out {no_dir}: "),
        (["verify", "--check", "reciprocity", "--family", "fmax", "--a1", "1", "--b1", "1",
          "--json", str(no_dir)], f"error: cannot write --json {no_dir}: "),
    ]
    for argv, start in cases:
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(start) and err.count("\n") == 1


@pytest.mark.parametrize("method,family", [
    ("stepping", ["--family", "asymptotic", "--nu", "0.35"]),
    ("convolution", ["--family", "fmax", "--a1", "0.6", "--b1", "1.7"]),
])
@pytest.mark.parametrize("kind", ["stress", "strain"])
def test_simulate_stdout_and_out_file_are_byte_identical(tmp_path, capsys, method, family, kind):
    dt = 2e-3
    load_csv = tmp_path / "load.csv"
    write_history(LoadHistory(kind, dt, np.sin(5.0 * dt * np.arange(300))), load_csv)
    args = ["simulate", *family, "--kind", kind, "--method", method, "--input", str(load_csv)]
    capsys.readouterr()
    assert run(args) == 0
    stdout = capsys.readouterr().out.encode("ascii")
    out = tmp_path / "resp.csv"
    assert run([*args, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout
    assert stdout.startswith(b"t,value\n0.0,0.0\n") and stdout.count(b"\n") == 301


def test_simulate_bessel_subfloor_grid_refusal_names_the_floor(tmp_path, capsys):
    # a nonzero first sample reads J at t = dt, which the series refuses
    load_csv = tmp_path / "load.csv"
    write_history(LoadHistory("stress", 1e-4, (1.0, 1.0, 1.0)), load_csv)
    rc = run(
        ["simulate", "--family", "bessel", "--nu", "0", "--kind", "stress",
         "--method", "convolution", "--input", str(load_csv), "--out", str(tmp_path / "o.csv")]
    )
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and "t_floor = 0.001" in err and "0.0001" in err
    assert "Laplace route" not in err


def test_simulate_bessel_subfloor_grid_from_rest_runs(tmp_path):
    # a load at rest reads only the kernel primitive, which holds at any dt
    load_csv = tmp_path / "load.csv"
    write_history(LoadHistory("stress", 1e-4, (0.0, 1.0, 1.0)), load_csv)
    out = tmp_path / "o.csv"
    rc = run(
        ["simulate", "--family", "bessel", "--nu", "0", "--kind", "stress",
         "--method", "convolution", "--input", str(load_csv), "--out", str(out)]
    )
    assert rc == 0
    values = [float(r[1]) for r in read_rows(out)[1:]]
    # the load ramps to 1 over the first panel and holds: the strain starts
    # above J(0+) = 1 and creeps
    assert values[0] == 0.0 and 1.0 < values[1] < values[2] < 1.1


@pytest.mark.parametrize("kind", ["stress", "strain"])
def test_simulate_stepping_fmax(tmp_path, kind):
    load_csv = tmp_path / "load.csv"
    write_history(LoadHistory(kind, 0.01, np.ones(11)), load_csv)
    out = tmp_path / "o.csv"
    rc = run(["simulate", "--family", "fmax", "--a1", "0.5", "--b1", "2", "--kind", kind,
              "--method", "stepping", "--input", str(load_csv), "--out", str(out)])
    assert rc == 0
    values = [float(r[1]) for r in read_rows(out)[1:]]
    # a unit step starts at the glass compliance a1/b1 or the glass modulus b1/a1
    assert values[0] == (0.25 if kind == "stress" else 4.0) and len(values) == 11


def test_simulate_stepping_requires_asymptotic(tmp_path):
    load_csv = tmp_path / "load.csv"
    _write_step_load(load_csv, dt=0.01, t_end=0.1)
    rc = run(
        ["simulate", "--family", "bessel", "--nu", "0", "--kind", "stress",
         "--method", "stepping", "--input", str(load_csv), "--out", str(tmp_path / "o.csv")]
    )
    assert rc == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_reciprocity_json_schema(tmp_path):
    summary = tmp_path / "summary.json"
    rc = run(
        ["verify", "--check", "reciprocity", "--family", "bessel", "--nu", "0.5",
         "--json", str(summary)]
    )
    assert rc == 0
    records = json.loads(summary.read_text())
    assert len(records) == 1
    assert set(records[0]) == {"check", "family", "params", "max_error", "tolerance", "pass"}
    assert records[0]["pass"] is True
    assert records[0]["max_error"] <= records[0]["tolerance"]


def test_verify_zeros(tmp_path):
    rc = run(
        ["verify", "--check", "zeros", "--nu", "0", "--n", "200",
         "--json", str(tmp_path / "z.json")]
    )
    assert rc == 0
    records = json.loads((tmp_path / "z.json").read_text())
    assert {r["check"] for r in records} == {"zeros-residual", "zeros-rayleigh", "zeros-spacing"}


def test_verify_asymptotics_and_cm_pass():
    assert run(["verify", "--check", "asymptotics"]) == 0
    assert run(["verify", "--check", "cm"]) == 0


def test_verify_cm_on_eight_zeros_passes(capsys):
    # the cm stencil starts at t = 0.06, where 8 terms bound Phi's tail below
    # tol, so a table of 8 zeros is enough
    capsys.readouterr()
    assert run(["verify", "--check", "cm", "--family", "bessel", "--nu", "0", "--n-max", "8"]) == 0
    assert capsys.readouterr().out.startswith("cm-phi  bessel ")


@pytest.mark.parametrize("family", [["--family", "fmax"], []], ids=["family", "bare-flags"])
@pytest.mark.parametrize("check", ["asymptotics", "cm", "zeros"])
def test_verify_check_refuses_a_family_it_does_not_cover(check, family, capsys):
    # these checks cover the Bessel (and asymptotic) families only; asked
    # about fmax, by name or by its --a1/--b1 alone, they must refuse, not
    # pass on their default battery
    capsys.readouterr()
    assert run(["verify", "--check", check, *family, "--a1", "0.3", "--b1", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --check {check} covers ")
    assert captured.err.endswith(" only, not fmax\n")
    assert captured.err.count("\n") == 1


def test_verify_cm_runs_only_the_family_asked_for(tmp_path):
    summary = tmp_path / "cm.json"
    assert run(["verify", "--check", "cm", "--family", "asymptotic", "--nu", "0.5",
                "--json", str(summary)]) == 0
    records = json.loads(summary.read_text())
    assert [(r["check"], r["params"]) for r in records] == [("cm-asym-memory", {"nu": 0.5})]


def test_verify_cm_evaluates_each_asymptotic_order_in_one_call(monkeypatch):
    # the four five-point stencils of an order are one relaxation_memory call;
    # erfcx is elementwise, so each row is bit for bit its own call's values
    from viscobessel.models import checks

    real = checks.relaxation_memory
    shapes = []

    def spy(lam, g, t):
        shapes.append(np.shape(t))
        out = real(lam, g, t)
        assert all(np.array_equal(got, real(lam, g, row)) for got, row in zip(out, t))
        return out

    monkeypatch.setattr(checks, "relaxation_memory", spy)
    assert run(["verify", "--check", "cm"]) == 0
    assert shapes == [(4, 5), (4, 5)]


def test_verify_cm_evaluates_each_bessel_order_in_one_call(monkeypatch):
    # the four five-point stencils of an order are one Phi series; each value
    # is within 4e-16 relative of its own one-time call, with no sign violation
    from viscobessel.models import checks

    real = checks.memory_phi_curve
    shapes = []

    def spy(nu, ts, policy=None):
        shapes.append(np.shape(ts))
        out = real(nu, ts, policy)
        alone = np.array([[real(nu, t, policy) for t in row] for row in ts])
        assert np.max(np.abs(out - alone) / alone) <= 4e-16
        return out

    monkeypatch.setattr(checks, "memory_phi_curve", spy)
    assert run(["verify", "--check", "cm"]) == 0
    assert shapes == [(4, 5), (4, 5)]


@pytest.mark.parametrize("check", ["reciprocity", "laplace-oracle", "interconversion"])
@pytest.mark.parametrize("flags", [["--nu", "0.7"], ["--a1", "0.3", "--b1", "2"]],
                         ids=["nu", "a1-b1"])
def test_verify_parameter_flag_without_family_is_refused(check, flags, capsys):
    # these checks cover every family, so a parameter flag names none: it
    # must be a usage error, not a pass on the default battery
    capsys.readouterr()
    assert run(["verify", "--check", check, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    named = " and ".join(flags[::2])
    assert captured.err == f"error: --check {check} needs --family with {named}\n"


@pytest.mark.parametrize("argv", [
    ["--check", "cm", "--n", "5"],
    ["--check", "reciprocity", "--n", "7"],
    ["--check", "interconversion", "--family", "fmax", "--a1", "1", "--b1", "1", "--n", "7"],
    ["--check", "asymptotics", "--nu", "0", "--n", "50"],
])
def test_verify_n_outside_the_zeros_check_is_refused(argv, capsys):
    # --n sizes zeros tables only; elsewhere it would be silently ignored
    capsys.readouterr()
    assert run(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --check {argv[1]} takes no --n (zeros per table, zeros check only)\n"


def test_verify_asymptotics_grid_outside_the_floor_is_refused(capsys):
    # the check's grid starts at 0.01: below --t-floor it is a refusal (exit 3)
    capsys.readouterr()
    assert run(["verify", "--check", "asymptotics", "--t-floor", "0.05"]) == 3
    err = capsys.readouterr().err
    assert err == ("refused: series evaluation refused below t_floor = 0.05 "
                   "(smallest requested t = 0.01)\n")


def test_verify_interconversion_pass(tmp_path):
    assert run(["verify", "--check", "interconversion"]) == 0


def test_verify_interconversion_does_not_read_the_t_floor(tmp_path, capsys):
    # both loads start at rest and read only the primitives, so a raised
    # --t-floor changes neither the grid nor a digit of the report
    reports = []
    for extra in ([], ["--t-floor", "0.2"]):
        path = tmp_path / f"ic{len(reports)}.json"
        capsys.readouterr()
        assert run(["verify", "--check", "interconversion", *extra, "--json", str(path)]) == 0
        reports.append((capsys.readouterr().out, path.read_bytes()))
    assert reports[0] == reports[1]


def test_verify_laplace_oracle_cli():
    rc = run(["verify", "--check", "laplace-oracle", "--family", "bessel", "--nu", "-0.5"])
    assert rc == 0


def test_verify_unknown_check_exit_2(capsys):
    with pytest.raises(SystemExit) as exc_info:
        run(["verify", "--check", "bogus"])
    assert exc_info.value.code == 2


def test_verify_failure_exits_1(monkeypatch):
    from viscobessel.models.checks import CHECKS, Check

    synthetic = Check(("bessel",), (("bessel", {"nu": 0.0}),), {"synthetic": 0.5},
                      lambda params, policy: {"synthetic": 1.0})
    monkeypatch.setitem(CHECKS, "reciprocity", synthetic)
    assert run(["verify", "--check", "reciprocity"]) == 1


@pytest.mark.parametrize("check", ["reciprocity", "interconversion", "asymptotics", "cm", "zeros"])
def test_verify_json_is_the_library_call_on_the_default_battery(tmp_path, check):
    # every check but the slow laplace-oracle: the records a library call
    # returns are exactly those `verify --json` writes
    from viscobessel.models.checks import run_check

    out = tmp_path / "v.json"
    assert run(["verify", "--check", check, "--json", str(out)]) == 0
    records = run_check(check)
    assert out.read_text() == json.dumps(records, indent=2) + "\n"
    assert json.loads(out.read_text()) == records


@pytest.mark.parametrize("argv,rc", [
    (["eval", "--family", "bessel", "--nu", "6", "--t-start", "0.01", "--points", "3"], 0),
    (["eval", "--family", "bessel", "--nu", "6.05", "--t-start", "0.01", "--points", "3"], 2),
    (["verify", "--check", "asymptotics", "--nu", "6"], 0),
    (["verify", "--check", "cm", "--family", "bessel", "--nu", "6.05"], 2),
    (["verify", "--check", "zeros", "--nu", "8", "--n", "60"], 0),
    (["verify", "--check", "zeros", "--nu", "8.05", "--n", "60"], 2),
    (["zeros", "--nu", "8", "--n", "3"], 0),
    (["zeros", "--nu", "8.05", "--n", "3"], 2),
])
def test_order_bounds_exit_2_with_one_error_line_naming_the_bound(capsys, argv, rc):
    # the Bessel family stops at nu = 6 (its J reads zeros of order nu + 2)
    # and zero tables at order 8; past either, one error line names the bound
    capsys.readouterr()
    assert run(argv) == rc
    err = capsys.readouterr().err
    if rc:
        bound = "nu <= 6" if "6.05" in argv else "order 8"
        assert err.startswith("error: ") and bound in err and err.count("\n") == 1


@pytest.mark.parametrize("argv,named", [
    (["--family", "fmax", "--a1", "1e-300", "--b1", "1e300", "--fn", "J"], "g = 0.0"),
    (["--family", "fmax", "--a1", "1e-300", "--b1", "1e300", "--fn", "G"], "g = 0.0"),
    (["--family", "asymptotic", "--nu", "1e308", "--fn", "J"], "lam = inf"),
    (["--family", "asymptotic", "--nu", "9e307", "--fn", "G"], "lam = inf"),
])
def test_a_law_that_is_not_finite_and_positive_exits_2(capsys, argv, named):
    # these printed J = 0.0, G = inf, or NaN with a RuntimeWarning, with exit
    # 0; the last one blamed a mittag_leffler_half argument nobody passed
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["eval", *argv, "--points", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert ": law lam = " in captured.err and named in captured.err
    assert "mittag" not in captured.err


def test_extreme_finite_law_evaluates_g_from_the_erfcx_asymptote(capsys):
    # lam = 1e300: G(1) = erfcx(1e300)/g = 1/sqrt(pi), where the continued
    # fraction gave 1.128
    capsys.readouterr()
    assert run(["eval", "--family", "fmax", "--a1", "1e-300", "--b1", "1", "--fn", "G",
                "--points", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "t,G" and rows[2].startswith("1.0,")
    assert float(rows[2].split(",")[1]) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)


@pytest.mark.parametrize("argv,named", [
    (["--family", "fmax", "--a1", "1e-300", "--b1", "1", "--fn", "G", "--t-end", "1e17"],
     "fmax[a1=1e-300;b1=1]: G_time overflows at t = 1e+17"),
    (["--family", "asymptotic", "--nu", "8e307", "--fn", "J", "--t-end", "1"],
     "asymptotic[nu=8e+307]: J_time overflows at t = 1.0"),
])
def test_a_finite_law_whose_kernel_overflows_exits_2_naming_law_and_time(capsys, argv, named):
    # -lam sqrt(t) and 2 lam overflowed: the first blamed mittag_leffler_half
    # after a RuntimeWarning, the second printed J = nan at t = 0 and inf
    # elsewhere with exit 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["eval", *argv, "--t-start", "0", "--points", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named}\n"


@pytest.mark.parametrize("load,argv,named", [
    (None, ["eval", "--fn", "J", "--t-start", "1", "--t-end", "3e307", "--points", "2"],
     "bessel[nu=0]: J overflows at t = 3e+307"),
    ((0.0, 1.0, 1.0), ["simulate", "--kind", "stress"],
     "bessel[nu=0]: creep primitive overflows at t = 2e+160"),
    (None, ["eval", "--tol", "inf"], "tol and t_floor must be finite and > 0, got inf, 0.001"),
    (None, ["eval", "--t-floor", "inf"], "tol and t_floor must be finite and > 0, got 1e-10, inf"),
], ids=["J", "creep-primitive", "tol", "t-floor"])
def test_bessel_overflow_and_an_infinite_policy_exit_2_with_one_error_line(
        tmp_path, capsys, load, argv, named):
    # J printed inf and the dt = 1e160 simulation inf and nan, each with
    # RuntimeWarnings and exit 0; --tol inf kept 8 terms (J(1e-3) = 1.07946,
    # not 1.07446) and --t-floor inf refused every time with exit 3
    if load is not None:
        write_history(LoadHistory("stress", 1e160, load), tmp_path / "load.csv")
        argv = [*argv, "--input", str(tmp_path / "load.csv")]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([*argv, "--family", "bessel", "--nu", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named}\n"


def test_a_finite_law_near_the_overflow_prints_the_true_g(capsys):
    # lam = 1.6e308: G(t) = 1/(sqrt(pi) lam sqrt(t)) < 5e-309, a subnormal
    capsys.readouterr()
    assert run(["eval", "--family", "asymptotic", "--nu", "8e307", "--fn", "G",
                "--t-start", "0", "--t-end", "1", "--points", "3"]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    lam = 2.0 * (8e307 + 1.0)
    assert [float(g) for _, g in rows] == pytest.approx(
        [1.0] + [1.0 / math.sqrt(math.pi) / (lam * math.sqrt(float(t))) for t, _ in rows[1:]],
        rel=1e-12, abs=0.0)


@pytest.mark.parametrize("nu", ["-0.5", "-0.8"])
def test_zeros_check_of_one_zero_passes_at_low_orders(capsys, nu):
    # the tail bound past N = 1 divided by zero at nu = -1/2 (a traceback) and
    # was negative below it (a spurious FAIL); the whole sum bounds it there
    assert run(["verify", "--check", "zeros", "--nu", nu, "--n", "1"]) == 0


# ---------------------------------------------------------------------------
# import hygiene: only the Talbot oracle loads mpmath
# ---------------------------------------------------------------------------

# Runs main(argv) (or only the import, for an empty argv) in a fresh
# interpreter and prints the exit code and which of the two modules loaded.
_PROBE = (
    "import sys\n"
    "from viscobessel.cli import main\n"
    "rc = main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
    "print('probe', rc, *sorted({'mpmath', 'fractions'} & set(sys.modules)))\n"
)


def _fresh_process(argv, cwd, probe=_PROBE):
    src = Path(viscobessel.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )
    tag, rc, *loaded = proc.stdout.splitlines()[-1].split()
    assert tag == "probe", proc.stderr
    return int(rc), loaded


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["eval", "--family", "bessel", "--nu", "0.5", "--fn", "G", "--t-start", "0.01",
         "--points", "20", "--spacing", "log", "--out", "curve.csv"],
        ["eval", "--figure", "3", "--out", "fig3.csv"],
        ["simulate", "--family", "bessel", "--nu", "0", "--kind", "stress",
         "--input", "load.csv", "--out", "resp.csv"],
        ["simulate", "--family", "asymptotic", "--nu", "0", "--kind", "stress",
         "--method", "stepping", "--input", "load.csv", "--out", "resp.csv"],
        ["zeros", "--nu", "1", "--n", "50"],
        ["verify", "--check", "reciprocity"],
        ["verify", "--check", "interconversion", "--family", "bessel", "--nu", "0"],
        ["verify", "--check", "asymptotics"],
        ["verify", "--check", "cm"],
        ["verify", "--check", "zeros", "--nu", "0.5", "--n", "60"],
    ],
    ids=lambda argv: " ".join(argv[:3]) or "import",
)
def test_cold_process_never_loads_mpmath_or_fractions(tmp_path, argv):
    _write_step_load(tmp_path / "load.csv", dt=0.01, t_end=0.5)
    rc, loaded = _fresh_process(argv, tmp_path)
    assert rc == 0
    assert loaded == []


def test_cold_laplace_oracle_process_loads_mpmath_and_passes(tmp_path):
    argv = ["verify", "--check", "laplace-oracle", "--family", "bessel", "--nu", "0"]
    rc, loaded = _fresh_process(argv, tmp_path)
    assert rc == 0
    assert "mpmath" in loaded


# Runs main(argv) in a fresh interpreter and prints the exit code, the most
# zeros the memo holds of any one order, and which of the simulators and the
# Talbot oracle loaded.
_WORK_PROBE = (
    "import sys\n"
    "from viscobessel.cli import main\n"
    "from viscobessel.specfun import zeros\n"
    "rc = main(sys.argv[1:])\n"
    "held = max(map(len, zeros._found.values()), default=0)\n"
    "print('probe', rc, held, *sorted({'viscobessel.fracsim', 'viscobessel.laplace'}"
    " & set(sys.modules)))\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--figure", "1", "--out", "fig1.csv"],
        ["eval", "--figure", "2", "--out", "fig2.csv"],
        ["eval", "--family", "bessel", "--nu", "0.5", "--t-start", "0.1", "--points", "20",
         "--out", "curve.csv"],
        ["zeros", "--nu", "1", "--n", "50"],
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_eval_and_zeros_build_only_what_they_read(tmp_path, argv):
    # the Bessel figures start at t = 1e-3, where a series reads at most 49
    # zeros of an order (its prefix search stops at 64), not the 200 of a full table;
    # writing a CSV loads neither the simulators nor the Talbot oracle
    rc, (held, *loaded) = _fresh_process(argv, tmp_path, _WORK_PROBE)
    assert rc == 0
    assert int(held) <= 64
    assert loaded == []


@pytest.mark.parametrize("nu", ["1e10", "1e200"])
def test_cm_passes_on_the_finite_memory_of_a_huge_law(tmp_path, capsys, nu):
    # lam sqrt(t) reaches 2.9e10 and 2.9e200: the difference of Phi's two
    # terms failed at 1e10 (max_error 131) and was -inf, yet passed, at 1e200
    capsys.readouterr()
    path = tmp_path / "cm.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["verify", "--check", "cm", "--family", "asymptotic", "--nu", nu,
                    "--json", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.count("\n") == 1 and "PASS" in captured.out
    [record] = json.loads(path.read_text())
    assert record["check"] == "cm-asym-memory" and record["max_error"] == 0.0 and record["pass"]


def test_cm_on_a_law_whose_memory_overflows_exits_2_naming_law_and_time(capsys):
    # lam = 1.6e308 is finite, but lam sqrt(t) overflows at the stencil's last time
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["verify", "--check", "cm", "--family", "asymptotic", "--nu", "8e307"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: asymptotic[nu=8e+307]: relaxation_memory overflows at t = 2.04\n"


# ---------------------------------------------------------------------------
# the process path: `python -m viscobessel.cli` ends through cli.run()
# ---------------------------------------------------------------------------

# Tightens the reciprocity check's tolerance to 0, so that its records fail,
# then ends the process through run().
_FAIL_PROBE = (
    "from viscobessel.cli import run\n"
    "from viscobessel.models.checks import CHECKS\n"
    "CHECKS['reciprocity'] = CHECKS['reciprocity']._replace(tol={'reciprocity': 0.0})\n"
    "run()\n"
)


def _process_env():
    # stdout block-buffered, as under a shell without PYTHONUNBUFFERED, so that
    # what run() must flush is still in the buffer when main() returns
    src = Path(viscobessel.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _cli_process(argv, cwd, probe=None):
    """(exit code, stdout bytes, stderr bytes) of `python -m viscobessel.cli
    argv`, or of `python -c probe argv`."""
    launch = ["-m", "viscobessel.cli"] if probe is None else ["-c", probe]
    proc = subprocess.run([sys.executable, *launch, *argv], cwd=cwd, env=_process_env(),
                          capture_output=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(argv, cwd, capsys, monkeypatch):
    """The same triple from main(argv) in this interpreter, run in cwd; an
    argparse SystemExit gives its code."""
    capsys.readouterr()
    with monkeypatch.context() as m:
        m.chdir(cwd)
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    out, err = capsys.readouterr()
    return rc, out.encode("ascii"), err.encode("ascii")


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def _same_as_in_process(argv, tmp_path, capsys, monkeypatch, probe=None):
    """Run argv as a process and in-process, each in its own directory, and
    assert the exit code, stdout, stderr and every file written are equal."""
    proc_dir, main_dir = tmp_path / "process", tmp_path / "main"
    proc_dir.mkdir()
    main_dir.mkdir()
    got = _cli_process(argv, proc_dir, probe)
    want = _in_process(argv, main_dir, capsys, monkeypatch)
    assert got == want
    assert _files(proc_dir) == _files(main_dir)
    return got, _files(proc_dir)


_BIG_EVAL = ["eval", "--family", "fmax", "--a1", "1", "--b1", "1", "--t-end", "5",
             "--points", "100000"]


@pytest.mark.parametrize("argv,rows", [(_BIG_EVAL, 100_001), (_BIG_EVAL[:-1] + ["10"], 11),
                                       (["zeros", "--nu", "1", "--n", "5"], 5)],
                         ids=["eval-1e5", "eval-10", "zeros"])
def test_process_writes_stdout_and_exits_0(argv, rows, tmp_path, capsys, monkeypatch):
    # run() flushes stdout before os._exit: a short output sits wholly in the
    # buffer until then, a long one ends in a block written past it
    (rc, out, err), files = _same_as_in_process(argv, tmp_path, capsys, monkeypatch)
    assert rc == 0 and err == b"" and files == {} and out.count(b"\n") == rows


@pytest.mark.parametrize("argv,written", [
    ([*_BIG_EVAL, "--out", "curve.csv", "--gnuplot"], {"curve.csv", "curve.csv.gp"}),
    (["verify", "--check", "reciprocity", "--json", "v.json"], {"v.json"}),
], ids=["out", "json"])
def test_process_writes_out_and_json_files_and_exits_0(argv, written, tmp_path, capsys,
                                                       monkeypatch):
    (rc, _, err), files = _same_as_in_process(argv, tmp_path, capsys, monkeypatch)
    assert rc == 0 and err == b"" and set(files) == written


@pytest.mark.parametrize("argv,rc,head", [
    (["eval", "--family", "bessel", "--fn", "J"], 2, b"error: "),
    (["eval", "--family", "fmax", "--a1", "1", "--b1", "1", "--bogus"], 2, b"usage: "),
    (["eval", "--family", "bessel", "--nu", "0", "--points", "10"], 3, b"refused: "),
], ids=["domain-error", "usage-error", "refusal"])
def test_process_errors_exit_as_in_process(argv, rc, head, tmp_path, capsys, monkeypatch):
    # argparse's SystemExit leaves run() and takes the interpreter's own exit
    got, _ = _same_as_in_process(argv, tmp_path, capsys, monkeypatch)
    assert got[:2] == (rc, b"") and got[2].startswith(head)


def test_process_failed_check_exits_1(tmp_path, capsys, monkeypatch):
    from viscobessel.models.checks import CHECKS

    argv = ["verify", "--check", "reciprocity", "--json", "v.json"]
    tight = CHECKS["reciprocity"]._replace(tol={"reciprocity": 0.0})
    monkeypatch.setitem(CHECKS, "reciprocity", tight)
    (rc, out, err), files = _same_as_in_process(argv, tmp_path, capsys, monkeypatch,
                                                probe=_FAIL_PROBE)
    assert rc == 1 and b"FAIL" in out and err == b"" and set(files) == {"v.json"}


@pytest.mark.parametrize("argv,read", [
    (["eval", "--family", "bessel", "--nu", "0", "--t-start", "0.001", "--points", "100000"], 1),
    (["eval", "--family", "fmax", "--a1", "1", "--b1", "1", "--points", "10"], 0),
], ids=["head-1", "head-0"])
def test_process_whose_reader_closes_early_exits_1_without_a_traceback(argv, read, tmp_path):
    # `| head -1` and `| head -0`: the reader takes `read` lines, then closes
    # the pipe; the next write or the final flush meets the closed pipe
    proc = subprocess.Popen([sys.executable, "-m", "viscobessel.cli", *argv], cwd=tmp_path,
                            env=_process_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = [proc.stdout.readline() for _ in range(read)]
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=600) == 1
    assert err == b""
    assert lines == [b"t,J\n"] * read


def test_the_installed_script_enters_through_run():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'viscobessel = "viscobessel.cli:run"' in pyproject
