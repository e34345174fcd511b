"""Machine-speed probes: fixed computations that never call viscobessel.

Other tenants of a shared machine slow the same op by tens of percent, over
stretches from a second to minutes, in wall time and in CPU time alike.  So a
run measures, in between its ops, a probe that spends its time the way the
workload's ops do, and the end-to-end times are given at the probe's nominal
speed: each pass's times are multiplied by NOMINAL_S[kind] over the probe's
median time in that pass.  A change to viscobessel moves the ops and not the
probes, so it shows in full; a slower or faster machine moves both.

  python   an interpreted loop (the simulators' per-step Python work)
  memory   exp of a 48 x 25000 outer product (the series' numpy work)
  pages    filling 40 MB of freshly mapped pages (the page faults of the
           1e6-point outer product, which is mapped anew on every call)
  process  a fresh interpreter importing numpy (a CLI op's start-up)

NOMINAL_S holds each probe's median CPU time on a 2-vCPU Intel Xeon VM, so
that normalised figures read close to raw ones there.  Only the ratio
between runs matters.
"""

import resource
import subprocess
import sys
import time

import numpy as np

NOMINAL_S = {"python": 3.0e-3, "memory": 0.018, "pages": 0.012, "process": 0.145}

_SQ = np.linspace(1.0, 2000.0, 48)
_TS = np.linspace(0.1, 1.0, 25_000)
# Above glibc's largest mmap threshold (32 MB), so every fill maps fresh pages.
_FRESH = 5_000_000


def _python():
    s = 0.0
    for i in range(30_000):
        s += (i % 7) * 0.5
    return s


def _memory():
    return float(np.exp(-np.multiply.outer(_SQ, _TS)).sum())


def _pages():
    return float(np.ones(_FRESH)[-1])


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def probe(kind, env=None):
    """CPU seconds of one probe run (the child's, for the process probe)."""
    if kind == "process":
        start = _children_cpu()
        subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True,
                       capture_output=True, timeout=60)
        return _children_cpu() - start
    fn = {"python": _python, "memory": _memory, "pages": _pages}[kind]
    start = time.process_time()
    fn()
    return time.process_time() - start
