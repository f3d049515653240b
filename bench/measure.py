"""Statistics and child-process helpers for the benchmark runner."""

from __future__ import annotations

import math
import os
import re
import selectors
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the tail is the mean of at least this many of the slowest samples
TAIL_COUNT = 10

# Reported times are scaled to the speed at which reference_loop() takes
# REF_SECONDS of CPU time (about its median on a shared 2-vCPU VM, Python 3.11).
REF_SECONDS = 0.015
# seconds of op time between two speed probes in a round
PROBE_EVERY = 0.2
# CPU seconds of each speed probe taken in this process
PROBES = []

# Fresh interpreters slow down in their own way (import work on cold memory
# drifted by 15 % against the reference loop between two sets of runs), so
# their times are scaled by import probes: a fresh interpreter that imports
# these stdlib modules, which takes IMPORT_REF_SECONDS of CPU at reference speed.
IMPORT_PROBE_MODULES = (
    "argparse", "asyncio", "csv", "decimal", "email.mime.multipart", "fractions", "http.client",
    "json", "logging", "pydoc", "statistics", "unittest", "xml.dom.minidom",
)
IMPORT_REF_SECONDS = 0.16
# CPU seconds of each import probe run by this process
IMPORT_PROBES = []


def reference_loop():
    """Fixed pure-Python work like trirad's: Fraction and big-int arithmetic, tuples, dicts."""
    x, acc, seen = Fraction(1, 3), 0, {}
    for i in range(1, 1500):
        x = (x * Fraction(i % 97 + 1, i % 89 + 2) + 1) / 3
        acc += (i * 2654435761) % 1000003
        seen[(i % 512, i & 7)] = acc
    return x, acc, len(seen)


def probe(times=1):
    """Record the CPU time of `times` reference loops, one probe each."""
    for _ in range(times):
        t0 = time.process_time()
        reference_loop()
        PROBES.append(time.process_time() - t0)


def speed_factor():
    """REF_SECONDS over the mean probe: scales this run's CPU times to reference speed.

    On a shared host each vCPU flips between a fast and a slow state (about
    1.5x apart) every 0.1-0.5 s, and the share of slow time drifts over
    minutes, by up to 1.6x in 15 s windows.  Trirad and the reference loop
    slow down alike: the ratio of their times over the same windows stays
    within a few per cent.  Probes taken between ops all through a run measure
    the speed the run had; their mean, not their median, since the median of
    a two-state mixture jumps between the states.
    """
    return REF_SECONDS / statistics.fmean(PROBES)


def import_probe():
    """Record the CPU time of a fresh interpreter that imports IMPORT_PROBE_MODULES."""
    res = run_child([sys.executable, "-c", "import " + ", ".join(IMPORT_PROBE_MODULES)])
    if res.returncode != 0:
        raise RuntimeError(f"import probe failed with exit code {res.returncode}:\n{res.output}")
    IMPORT_PROBES.append(res.cpu)
    return res.cpu


def import_speed_factor():
    """IMPORT_REF_SECONDS over the mean import probe: scales child CPU times to reference speed."""
    return IMPORT_REF_SECONDS / statistics.fmean(IMPORT_PROBES)


def tail(xs):
    """Mean of the slowest 1% of the samples, and of at least TAIL_COUNT of them.

    Returns (value, number of samples averaged).  A mean over the tail, not
    one order statistic: when the inputs are fixed, the slowest ops come in a
    few distinct costs, and a single percentile jumps between them.
    """
    s = sorted(xs, reverse=True)
    k = max(math.ceil(len(s) / 100), min(TAIL_COUNT, len(s)))
    return sum(s[:k]) / k, k


def child_env():
    """Environment for children that import trirad from the working tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class ChildResult(NamedTuple):
    returncode: Optional[int]  # None when the child was killed at the timeout
    output: str  # stdout and stderr, merged
    wall: float
    cpu: float  # the child's user + system CPU time
    maxrss_kb: int


def run_child(argv, timeout=120.0):
    """Run one child to completion; stdout and stderr are merged.

    The child is reaped with wait4 so that its own CPU time and peak RSS are
    known.  A child still running at the timeout is killed and reported with
    returncode None.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        env=child_env(), cwd=ROOT,
    )
    chunks = []
    timed_out = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            left = t0 + timeout - time.perf_counter()
            if left <= 0:
                timed_out = True
                proc.kill()
                break
            if not sel.select(left):
                continue
            data = os.read(proc.stdout.fileno(), 65536)
            if not data:
                break
            chunks.append(data)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if timed_out else proc.returncode
    output = b"".join(chunks).decode("utf-8", "replace")
    return ChildResult(code, output, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


_SETUP_SCRIPT = """
import time
t0 = time.process_time()
import importlib
for name in {modules!r}:
    importlib.import_module(name)
from trirad.group import get_params
for p, q in {pairs!r}:
    get_params(p, q)
print(time.process_time() - t0)
"""


def setup_time(modules, pairs):
    """CPU seconds a fresh interpreter spends importing `modules` and building GroupParams.

    Scaled to reference speed by an import probe run right after it.
    """
    script = _SETUP_SCRIPT.format(modules=list(modules), pairs=list(pairs))
    res = run_child([sys.executable, "-c", script])
    if res.returncode != 0:
        raise RuntimeError(f"set-up child failed with exit code {res.returncode}:\n{res.output}")
    return float(res.output.strip().splitlines()[-1]) * IMPORT_REF_SECONDS / import_probe()


# -X importtime lines: "import time: <self us> | <cumulative us> | <indent><module>"
_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)\s*$")


def parse_importtime(text):
    """(module, cumulative seconds, nesting depth) for each -X importtime line."""
    out = []
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            out.append((m.group(4), int(m.group(2)) / 1e6, len(m.group(3)) // 2))
    return out


def import_seconds(entries, startup_modules):
    """Total and scipy import time of one child, excluding interpreter start-up.

    Total: cumulative time of the outermost imports that a bare interpreter
    does not make.  Scipy: cumulative time of the scipy modules that no other
    scipy module imported.
    """
    total = scipy = 0.0
    # importtime prints a module after its children; reversed, parents come first
    ancestors = []  # (depth, is_scipy) of the open parents
    for name, cum, depth in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name.split(".")[0] == "scipy"
        if depth == 0 and name not in startup_modules:
            total += cum
        if is_scipy and not any(s for _, s in ancestors):
            scipy += cum
        ancestors.append((depth, is_scipy))
    return total, scipy
