"""The benchmark's own tests.

    python3 -m pytest perfbench/check_bench.py -q

The file name keeps it out of the package's default test collection: a tiny
traced run of each workload starts CLI processes and takes a few seconds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from probes import NOMINAL_S  # noqa: E402
from reference import check  # noqa: E402
from report import at_nominal_speed, best_samples, latency_tail  # noqa: E402
from tracer import NullTracer  # noqa: E402
from workloads import WORKLOADS, Runner, make_ops, zero_orders  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_workloads_in_spec_are_known_to_the_runner():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_same_seed_same_ops():
    for workload in WORKLOADS:
        assert make_ops(workload, 11) == make_ops(workload, 11)
        assert make_ops(workload, 11) != make_ops(workload, 12)


def test_latency_tail_keeps_ten_samples_beyond():
    lats = [float(i) for i in range(100)]
    value, percentile, n = latency_tail(lats)
    assert (value, percentile, n) == (89.0, 90.0, 100)
    assert sum(x > value for x in lats) == 10


def test_best_samples_keep_each_ops_fastest_two():
    passes = [[3.0, 10.0], [1.0, 30.0], [2.0, 20.0], [9.0, 40.0]]
    assert best_samples(passes) == [1.0, 2.0, 10.0, 20.0]
    assert len(best_samples(passes * 2)) == 4


def test_times_scale_by_their_nearest_probes():
    # Ops 0-5 ran at half speed, then the machine sped up: each op is scaled
    # by the median of its 5 nearest probe runs, so one slow or fast probe
    # does not move it.  An op gauged by two probes is scaled by their sum.
    nominal = NOMINAL_S["python"]
    slow = [2 * nominal] * 4 + [9 * nominal, 2 * nominal]
    fast = [nominal] * 5 + [0.1 * nominal]
    probes = [(i, {"python": t, "pages": t}) for i, t in enumerate(slow + fast)]
    scaled = at_nominal_speed([4.0] * 12, probes, [("python",)] * 11 + [("python", "pages")])
    assert scaled[:4] == [pytest.approx(2.0)] * 4
    assert scaled[9:11] == [pytest.approx(4.0)] * 2
    assert scaled[11] == pytest.approx(4.0 * (nominal + NOMINAL_S["pages"]) / (2 * nominal))


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    ops = make_ops("curves", 5, tiny=True) + make_ops("verify", 5, tiny=True)
    ops += make_ops("simulate", 5, tiny=True)
    r = Runner(NullTracer(), tmp_path_factory.mktemp("work"), ROOT / "src")
    r.build_tables(zero_orders(ops))
    return r


def _first(workload, kind, **match):
    for op in make_ops(workload, 5, tiny=True):
        if op["kind"] == kind and all(op.get(k) == v for k, v in match.items()):
            return op
    raise LookupError(kind)


def _sample(runner, op):
    return runner.sample(op, runner.execute(op, runner.prepare(op)))


def test_perturbed_curve_fails(runner):
    op = next(o for o in make_ops("curves", 5, tiny=True) if o["params"]["family"] == "bessel")
    sample = _sample(runner, op)
    assert check(op, sample)[0]
    sample["values"][3] *= 1.0 + 1e-6
    ok, err, why = check(op, sample)
    assert not ok and err > 1e-9 and why


def test_perturbed_talbot_fails(runner):
    op = _first("verify", "talbot")
    sample = _sample(runner, op)
    assert check(op, sample)[0]
    sample["inv"] *= 1.0 + 1e-5
    assert not check(op, sample)[0]


def test_perturbed_simulation_fails(runner):
    for kind in ("stepping", "convolution"):
        op = _first("simulate", kind)
        sample = _sample(runner, op)
        assert check(op, sample)[0]
        last = sample["values"][-1]
        sample["values"][-1] = last + 0.05 * max(op["load"]["amp"], abs(last))
        assert not check(op, sample)[0]


def test_raised_exception_is_a_failure():
    op = _first("verify", "reciprocity")
    assert not check(op, ValueError("boom"))[0]


def test_cli_exit_codes_and_figure_hash(tmp_path):
    ops = make_ops("cli", 5, tiny=True)
    r = Runner(NullTracer(), tmp_path, ROOT / "src")
    r.setup_cli(ops)
    refusal = next(op for op in ops if op["expect"] == 3)
    sample = _sample(r, refusal)
    assert sample["code"] == 3 and check(refusal, sample)[0]
    assert not check(refusal, {**sample, "code": 0})[0]

    figure = next(op for op in ops if "sha256" in op)
    sample = _sample(r, figure)
    assert check(figure, sample)[0]
    assert not check(figure, {**sample, "sha256": "0" * 64})[0]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("curves", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
