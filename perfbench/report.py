"""End-to-end metrics, per-layer metrics from spans, and run provenance.

Which end-to-end metric each layer metric should move, and where:

  specfun.zeros.*           setup_s on every workload; norm_op_p50_ms on cli
  specfun.bessel.node_*     the Bessel transform nodes inside invert_talbot
  laplace.*                 Talbot loop self time (span minus its node spans)
  models.bessel_family.*    norm_ops_per_s and peak_rss_mb on curves
  models.maxwell.*          norm_ops_per_s on curves; norm_op_p50_ms on simulate
  fracsim.stepping/convolution/kernel/*scaling_exp
                            norm_ops_per_s and norm_op_tail_ms on simulate
  fracsim.interconversion_* the interconversion check
  cli.*                     setup_s and norm_op_p50_ms on cli

Every traced run also runs the small op lists of the other workloads, so
the curves (series) and verify (Talbot, node, interconversion) layers have
spans whichever workload is traced.  Metrics named *_computed are derived
from the public zero table and the documented truncation rule, not measured.
"""

import hashlib
import math
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from probes import NOMINAL_S
from workloads import ZERO_TABLE_SIZE, curve_grid

# The series truncation rule of viscobessel.models.bessel_family, as its
# docstrings state it: the smallest N >= n_min with coeff * exp(-j_N^2 t_min)
# <= tol, coeff = (nu+1)/(nu+3) for J and 1 for G.
SERIES_TOL = 1e-10
SERIES_N_MIN = 8
MIN_PASSES = 4  # timed passes a run makes at least
BEST_OF = 2  # each op's fastest samples that the end-to-end metrics keep
NEAREST_PROBES = 5  # speed probes whose median scales an op's time


def metric(value, unit):
    return {"value": value, "unit": unit}


def latency_tail(lats):
    """Highest percentile with at least ten samples beyond it: (value, percentile, n)."""
    xs = sorted(lats)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def best_samples(pass_times, keep=BEST_OF):
    """Each op's ``keep`` fastest times over the timed passes, pooled.

    Every pass runs the same ops, so the pool holds ``keep`` samples of every
    op whatever number of passes the run fitted in.
    """
    return [x for xs in zip(*pass_times) for x in sorted(xs)[:keep]]


def at_nominal_speed(times, probes, op_kinds):
    """Scale each op's time to the nominal speed of its probes.

    ``probes`` holds (index of the op the probes ran before, {kind: seconds}).
    Op i is scaled by the nominal time of the kinds in op_kinds[i] over the
    median of their summed time in the NEAREST_PROBES probe runs nearest it.
    """
    scaled = []
    for i, (x, kinds) in enumerate(zip(times, op_kinds)):
        near = sorted(probes, key=lambda p: abs(p[0] - i))[:NEAREST_PROBES]
        measured = statistics.median(sum(t[k] for k in kinds) for _, t in near)
        scaled.append(x * sum(NOMINAL_S[k] for k in kinds) / measured)
    return scaled


def end_to_end(pass_cpu, pass_probes, op_kinds, setup_s, peak_rss_mb):
    """End-to-end metrics from each timed pass's per-op CPU seconds.

    Times are CPU time at the speed probes' nominal speed (probes.py): each
    op's time is multiplied by its probes' nominal time over the median of
    their times in the NEAREST_PROBES probe runs around it in its pass
    (at_nominal_speed).  Each op then
    keeps its BEST_OF fastest of at least MIN_PASSES passes: other tenants
    can only slow an op, so the fastest samples, taken in passes spread over
    the run, are the op's own cost.  The program runs single-threaded, so CPU and wall time agree on
    an idle machine; the result's detail line reports raw CPU and wall
    figures too.
    """
    scaled = [at_nominal_speed(p, probes, op_kinds) for p, probes in zip(pass_cpu, pass_probes)]
    pool = best_samples(scaled)
    tail, _, _ = latency_tail(pool)
    return {
        "setup_s": metric(setup_s, "s"),
        "norm_ops_per_s": metric(len(pool) / sum(pool), "ops/s"),
        "norm_op_p50_ms": metric(statistics.median(pool) * 1e3, "ms"),
        "norm_op_tail_ms": metric(tail * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def scaling_exp(points):
    """Slope of log(time) against log(size), from per-size median times.

    Sizes of at least 1000 are used when there are two or more of them, so
    per-call overhead at tiny sizes does not flatten the fit.
    """
    by_size = defaultdict(list)
    for n, dt in points:
        if n > 0 and dt > 0:
            by_size[n].append(dt)
    sizes = sorted(by_size)
    big = [n for n in sizes if n >= 1000]
    sizes = big if len(big) >= 2 else sizes
    if len(sizes) < 2:
        return 0.0
    x = np.log([float(n) for n in sizes])
    y = np.log([statistics.median(by_size[n]) for n in sizes])
    return float(np.polyfit(x, y, 1)[0])


def _series_terms(zero_table, op):
    """(terms, n_use, n_points, points needing <= 8 terms) for one Bessel J/G call."""
    params = op["params"]
    nu = params["nu"]
    if op["kind"] == "curve":
        ts = curve_grid(op)
    else:
        ts = np.array([op["t"]])
    fn = op["fn"]
    order, coeff = (nu + 2.0, (nu + 1.0) / (nu + 3.0)) if fn == "J" else (nu, 1.0)
    sq = np.asarray(zero_table(order, ZERO_TABLE_SIZE).squares)
    need = math.log(coeff / SERIES_TOL)  # exp(-sq t) <= tol/coeff  <=>  sq t >= need
    t_min = float(ts.min())
    n_use = max(SERIES_N_MIN, int(np.searchsorted(sq, need / t_min)) + 1)
    le8 = int(np.count_nonzero(ts >= need / sq[7]))
    return n_use * len(ts), n_use, len(ts), le8


def per_layer(tracer, executed, checks, cli_import_s, overhead_pct, zero_table):
    """Per-layer metrics from the spans of a traced run.

    ``executed`` holds (op, latency, sample) in run order and ``checks`` the
    matching (ok, err, why); span.op indexes into both.
    """
    spans = tracer.spans
    named = defaultdict(list)
    child_time = defaultdict(float)
    for i, s in enumerate(spans):
        named[s.name].append(i)
        if s.parent is not None:
            child_time[s.parent] += s.duration

    def total(name):
        return sum(spans[i].duration for i in named[name])

    def points(*names):
        return [(spans[i].attrs.get("n", 0), spans[i].duration) for n in names for i in named[n]]

    def ns_per_point(*names):
        pts = points(*names)
        n = sum(p for p, _ in pts)
        return sum(d for _, d in pts) / n * 1e9 if n else 0.0

    def max_err(pred):
        errs = [c[1] for (op, _, _), c in zip(executed, checks) if pred(op)]
        return max(errs) if errs else 0.0

    out = {}
    builds = named["specfun.zeros.build"]
    out["specfun.zeros.build_ms"] = metric(total("specfun.zeros.build") * 1e3, "ms")
    out["specfun.zeros.tables_built"] = metric(len(builds), "count")

    nodes = named["specfun.bessel.node"]
    out["specfun.bessel.node_us"] = metric(
        total("specfun.bessel.node") / len(nodes) * 1e6 if nodes else 0.0, "us")
    out["specfun.bessel.nodes"] = metric(len(nodes), "count")

    talbot = named["laplace.invert_talbot"]
    out["laplace.talbot_self_s"] = metric(
        sum(spans[i].duration - child_time[i] for i in talbot), "s")
    out["laplace.inversions"] = metric(len(talbot), "count")
    out["laplace.max_rel_err"] = metric(max_err(lambda op: op["kind"] == "talbot"), "1")

    bessel_curves = ("models.bessel_family.J_curve", "models.bessel_family.G_curve")
    terms = n_points = le8 = 0
    temp_mb = 0.0
    for i in named[bessel_curves[0]] + named[bessel_curves[1]]:
        t, n_use, n, k = _series_terms(zero_table, executed[spans[i].op][0])
        terms, n_points, le8 = terms + t, n_points + n, le8 + k
        # _dirichlet_sum holds the n_use x n_t outer product and its exp at once.
        temp_mb = max(temp_mb, 2 * 8 * n_use * n / 1e6)
    out["models.bessel_family.ns_per_point"] = metric(ns_per_point(*bessel_curves), "ns")
    out["models.bessel_family.terms_computed"] = metric(terms, "count")
    out["models.bessel_family.temp_mb_computed"] = metric(temp_mb, "MB")
    out["models.bessel_family.le8_terms_share"] = metric(le8 / n_points if n_points else 0.0, "1")
    out["models.bessel_family.scaling_exp"] = metric(scaling_exp(points(*bessel_curves)), "1")
    out["models.bessel_family.max_rel_err"] = metric(max_err(
        lambda op: op["kind"] == "curve" and op["params"]["family"] == "bessel"), "1")

    out["models.maxwell.J_ns_per_point"] = metric(ns_per_point("models.maxwell.J_curve"), "ns")
    out["models.maxwell.G_ns_per_point"] = metric(ns_per_point("models.maxwell.G_curve"), "ns")
    out["models.maxwell.max_rel_err"] = metric(max_err(
        lambda op: op["kind"] == "curve" and op["params"]["family"] != "bessel"), "1")

    stepping, conv = "fracsim.simulate_asymptotic", "fracsim.convolve_response"
    out["fracsim.stepping_s"] = metric(total(stepping), "s")
    out["fracsim.convolution_s"] = metric(total(conv), "s")
    out["fracsim.steps"] = metric(sum(n for n, _ in points(stepping, conv)), "count")
    out["fracsim.stepping_scaling_exp"] = metric(scaling_exp(points(stepping)), "1")
    out["fracsim.convolution_scaling_exp"] = metric(scaling_exp(points(conv)), "1")
    out["fracsim.kernel_s"] = metric(total("fracsim.kernel"), "s")
    out["fracsim.max_err"] = metric(max_err(
        lambda op: op["kind"] in ("stepping", "convolution")), "1")
    out["fracsim.interconversion_s"] = metric(total("fracsim.interconversion_check"), "s")
    residuals = [sample["max_error"] for op, _, sample in executed
                 if op["kind"] == "interconversion" and isinstance(sample, dict)]
    out["fracsim.interconversion_residual"] = metric(max(residuals, default=0.0), "1")

    out["cli.import_s"] = metric(cli_import_s, "s")
    for sub in ("eval", "verify", "simulate", "zeros"):
        durs = [spans[i].duration for i in named[f"cli.{sub}"] if not spans[i].attrs.get("tag")]
        out[f"cli.{sub}_ms"] = metric(statistics.median(durs) * 1e3 if durs else 0.0, "ms")
    for tag in ("zero_cache_cold", "zero_cache_warm"):
        durs = [spans[i].duration for i in named["cli.eval"] if spans[i].attrs.get("tag") == tag]
        out[f"cli.{tag}_ms"] = metric(statistics.median(durs) * 1e3 if durs else 0.0, "ms")
    out["cli.csv_bytes"] = metric(sum(
        sample.get("bytes", 0) for op, _, sample in executed
        if op["kind"] == "cli" and isinstance(sample, dict)), "bytes")

    out["trace.overhead_pct"] = metric(overhead_pct, "%")
    out["trace.spans"] = metric(len(spans), "count")
    return out


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git_sha(root):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest(src):
    h = hashlib.sha256()
    for path in sorted(Path(src).rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return {k: sizes.get(k) for k in ("L2", "L3")}


def provenance(root, src, seed, ops_hash):
    import mpmath

    return {
        "git_sha": _git_sha(root),
        "src_sha256": _src_digest(src),
        "seed": seed,
        "ops_sha256": ops_hash,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
    }
