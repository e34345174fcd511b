"""viscobessel benchmark: one workload per invocation, in a fresh process.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: the package is imported from ./src (it is
not installed) and the CLI runs as ``python -m viscobessel.cli``.  Scratch
files go to ./.perfbench-work/ and are removed at exit.

Load model: a closed loop with one client and no threads (numpy's BLAS is
pinned to one thread, here and in every CLI child).  The seed's op list is
run in whole passes, at least four, while the next pass is expected to end
within ``--seconds`` of wall time; each op's latency is the library call
(or CLI process) alone, taken as CPU time.  In between the ops a speed probe
(probes.py) gauges how fast the shared machine runs at that moment, and the
end-to-end times are given at the probe's nominal speed (the norm_* metrics
and setup_s).  Throughput, median and tail come from each op's two fastest
samples (report.end_to_end).  Every output is then checked against an
independent reference (reference.py), outside the timed region.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes of the same ops (the difference of their best passes' CPU time
is the tracing overhead), then runs a small traced pass of each other workload so
that every layer has spans, and reports the per-layer metrics.

Output: one JSON line with provenance, the latency-tail definition and the
failures, then, as the last line, {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os

# One client on one core: numpy's BLAS, and every CLI child that inherits
# this environment, run single-threaded, so an op's CPU time is its cost.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probes import NOMINAL_S, probe
from report import MIN_PASSES, best_samples, end_to_end, latency_tail, per_layer, provenance
from tracer import NullTracer, Tracer
from workloads import WORKLOADS, ZERO_TABLE_SIZE, Runner, make_ops, ops_digest, zero_orders

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

SETUP_PROBES = 7
TRACE_PASSES = 2  # alternating untraced and traced passes; the best of each is compared
PROBE_TIMEOUT_S = 60
# The speed probes (probes.py) each workload runs in between its ops, and
# before every how many ops: about a tenth of a pass's time goes to probes.
SPEED_PROBE = {"curves": (("memory", "pages"), 3), "verify": (("python",), 1),
               "simulate": (("python",), 1), "cli": (("process",), 4)}
# Ops this large map their temporaries anew on every call (above glibc's
# largest mmap threshold), so the fresh-page probe adds to their gauge.
FRESH_PAGES_POINTS = 1_000_000

# What each workload imports before its first op (the op modules of Runner).
SETUP_IMPORTS = {
    "curves": "viscobessel.models",
    "verify": "viscobessel.models, viscobessel.laplace, viscobessel.fracsim",
    "simulate": "viscobessel.fracsim",
    "cli": "viscobessel.cli",
}


def probe_kinds(workload, op):
    """The probes whose summed time gauges the machine's speed for op."""
    kinds = SPEED_PROBE[workload][0]
    return kinds if op.get("n", 0) >= FRESH_PAGES_POINTS else kinds[:1]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="run the small op lists (the benchmark's own tests use them)")
    return p.parse_args(argv)


def measure_setup(workload, orders, probes):
    """Median CPU time a fresh interpreter spends until it could run an op.

    The child imports what the workload imports and builds every zero table
    the op list reads, then prints its wall clock and the CPU time it has used
    since it was launched; the parent took its own wall clock just before
    launching it.  A process speed probe runs after each child.  Returns the
    median CPU time at the probe's nominal speed, the raw median, and the
    (wall, cpu, probe) samples.
    """
    code = (f"import time\nimport {SETUP_IMPORTS[workload]}\n"
            "from viscobessel.specfun import zero_table\n"
            f"for order in {orders!r}:\n    zero_table(order, {ZERO_TABLE_SIZE})\n"
            "print(repr(time.time()), repr(time.process_time()))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = []
    for _ in range(probes):
        start = time.time()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        end, cpu = proc.stdout.split()[-2:]
        samples.append((float(end) - start, float(cpu), probe("process", env)))
    raw = statistics.median(cpu for _, cpu, _ in samples)
    speed = statistics.median(p for _, _, p in samples) / NOMINAL_S["process"]
    return raw / speed, raw, samples


def children_cpu():
    """CPU seconds used by the child processes waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_pass(runner, ops, executed, in_process=True, speed_probe=None):
    """One pass over ops: prepare (untimed), execute (timed), sample (untimed).

    Returns each op's (wall, cpu) seconds and the speed probes' (op index,
    {kind: CPU seconds}).  CPU time is the process's own for in-process ops
    and the child's for CLI ops (one child runs at a time).  ``speed_probe``
    is (kinds, every): the probes run before every ``every``-th op.
    """
    cpu_clock = time.process_time if in_process else children_cpu
    lats, probe_times = [], []
    for i, op in enumerate(ops):
        if speed_probe and i % speed_probe[1] == 0:
            probe_times.append((i, {k: probe(k, runner.cli_env()) for k in speed_probe[0]}))
        inputs = runner.prepare(op)
        runner.tracer.op = len(executed)
        cpu0 = cpu_clock()
        start = time.perf_counter()
        try:
            out = runner.execute(op, inputs)
        except Exception as exc:  # a raising op is a failed op, not a failed run
            out = exc
        wall = time.perf_counter() - start
        cpu = cpu_clock() - cpu0
        del inputs
        sample = out if isinstance(out, Exception) else runner.sample(op, out)
        del out
        executed.append((op, wall, sample))
        lats.append((wall, cpu))
    return lats, probe_times


def time_kernels(runner, ops):
    """Time the kernel calls of each convolution op on their own, after the passes."""
    for op in ops:
        if op["kind"] == "convolution":
            runner.time_kernel(op)


def run(args):
    ops = make_ops(args.workload, args.seed, tiny=args.tiny)
    in_process = args.workload != "cli"
    orders = zero_orders(ops)
    setup_s, setup_raw_s, setup_samples = measure_setup(args.workload, orders, SETUP_PROBES)
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{time.time_ns()}"
    sys.path.insert(0, str(SRC))
    tracer = Tracer() if args.trace else NullTracer()
    runner = Runner(tracer, work, SRC)
    executed = []
    try:
        runner.build_tables(orders)
        if not in_process:
            runner.setup_cli(ops)

        pass_lats, pass_probes = [], []
        if args.trace:
            untraced, traced = [], []
            for _ in range(TRACE_PASSES):
                runner.tracer = NullTracer()
                untraced.append(sum(cpu for _, cpu in run_pass(runner, ops, executed, in_process)[0]))
                runner.tracer = tracer
                traced.append(sum(cpu for _, cpu in run_pass(runner, ops, executed, in_process)[0]))
            overhead_pct = (min(traced) - min(untraced)) / min(untraced) * 100.0
            time_kernels(runner, ops)
        else:
            # Whole passes while the next one is expected to end within
            # --seconds of the start.  No warm-up pass: an op's first, cold
            # sample is one of at least MIN_PASSES and is dropped if slower.
            speed_probe = SPEED_PROBE[args.workload]
            start = time.perf_counter()
            while True:
                lats, probe_times = run_pass(runner, ops, executed, in_process, speed_probe)
                pass_lats.append(lats)
                pass_probes.append(probe_times)
                elapsed = time.perf_counter() - start
                next_end = elapsed * (len(pass_lats) + 2) / (len(pass_lats) + 1)
                if len(pass_lats) >= MIN_PASSES and next_end > args.seconds:
                    break
        usage = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

        cli_import_s = setup_raw_s if args.workload == "cli" else None
        probed = []
        if args.trace:
            for other in WORKLOADS:
                if other == args.workload:
                    continue
                probe_ops = make_ops(other, args.seed, tiny=True)
                runner.build_tables(zero_orders(probe_ops))
                if other == "cli":
                    runner.setup_cli(probe_ops)
                    cli_import_s = measure_setup("cli", [], 3)[1]
                run_pass(runner, probe_ops, executed, other != "cli")
                time_kernels(runner, probe_ops)
                probed.append(other)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    from reference import check  # scipy is imported only after the timed loop

    checks = [check(op, sample) for op, _, sample in executed]
    failed = sum(1 for ok, _, _ in checks if not ok)
    if args.trace:
        metrics = per_layer(tracer, executed, checks, cli_import_s, overhead_pct,
                            runner.zero_table)
    else:
        metrics = end_to_end([[cpu for _, cpu in p] for p in pass_lats], pass_probes,
                             [probe_kinds(args.workload, op) for op in ops],
                             setup_s, peak_rss_mb)
    best_cpu = best_samples([[cpu for _, cpu in p] for p in pass_lats])
    best_wall = best_samples([[wall for wall, _ in p] for p in pass_lats])
    tail = latency_tail(best_cpu) if best_cpu else (0.0, 0.0, 0)
    by_kind = {}
    for (op, lat, _), (ok, err, _) in zip(executed, checks):
        key = f"cli.{op['sub']}" if op["kind"] == "cli" else op["kind"]
        entry = by_kind.setdefault(key, {"ops": 0, "failed": 0, "seconds": 0.0, "max_err": 0.0})
        entry["ops"] += 1
        entry["failed"] += not ok
        entry["seconds"] += lat
        entry["max_err"] = max(entry["max_err"], err)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(ROOT, SRC, args.seed, ops_digest(ops)),
        "ops_per_pass": len(ops),
        "timed_passes": len(pass_lats),
        "pass_ops_per_cpu_s": [len(p) / sum(cpu for _, cpu in p) for p in pass_lats],
        "pass_ops_per_wall_s": [len(p) / sum(wall for wall, _ in p) for p in pass_lats],
        "wall_ops_per_s": len(best_wall) / sum(best_wall) if best_wall else None,
        "wall_op_p50_ms": statistics.median(best_wall) * 1e3 if best_wall else None,
        "raw_cpu_ops_per_s": len(best_cpu) / sum(best_cpu) if best_cpu else None,
        "raw_cpu_op_p50_ms": statistics.median(best_cpu) * 1e3 if best_cpu else None,
        "op_tail": {"percentile": tail[1], "samples": tail[2], "beyond": min(10, tail[2])},
        "speed_probes": SPEED_PROBE[args.workload][0],
        "pass_speed": [{k: statistics.median(t[k] for _, t in p) / NOMINAL_S[k] for k in p[0][1]}
                       for p in pass_probes],
        "setup_raw_cpu_s": setup_raw_s,
        "setup_samples_wall_cpu_probe_s": setup_samples,
        "fail_ratio": failed / len(executed),
        "failures": [f"{op['kind']}: {why}" for (op, _, _), (ok, _, why)
                     in zip(executed, checks) if not ok][:20],
        "by_kind": by_kind,
        "probed_workloads": probed,
    }
    print(json.dumps(detail, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": len(executed),
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "viscobessel" / "__init__.py").is_file():
        print(f"error: no viscobessel package at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
