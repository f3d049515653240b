"""Benchmark of trirad: end-to-end metrics per workload, or per-layer metrics traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports trirad from its `src/`.  One
closed-loop client in one thread: the next op starts when the previous one
has ended, and cli_oneshot runs one child process at a time.  A run has a
fixed number of rounds, round(--seconds / the workload's SECONDS_PER_ROUND),
so the same seed always gives the same ops.  Times are CPU times of the
process doing the work (see README.md).

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs the
same untraced rounds, then the first round again with every layer wrapped
(tracing.py), and prints the per-layer metrics.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from typing import NamedTuple

import measure
import tracing

WORKLOADS = ("pairs_short", "words_long", "classes_23", "cli_oneshot")
SETUP_REPEATS = 5
TRACE_ROUNDS = 1
OUT_DIR = measure.ROOT / ".bench_out"


class Round(NamedTuple):
    latencies: list  # CPU seconds per op
    cpu: float
    statuses: list  # per op: None, KNOWN or the first violation
    digest: str


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_phase(wl, n_rounds):
    """Run `n_rounds` whole rounds, round i on `wl.inputs(i)`.

    Each round's outputs are checked right after it, outside the timed region,
    so that memory does not grow with the number of rounds.  Also returns the
    peak RSS in MB of this process as set by the program, not by the checks:
    the high-water mark is read before and after each round's check, and only
    a rise during a round (or before the first) counts.
    """
    rounds = []
    rss_mb = maxrss_mb()
    for i in range(n_rounds):
        inputs = wl.inputs(i)
        before = maxrss_mb()
        lat, results, cpu = wl.run_round(inputs)
        after = maxrss_mb()
        if after > before:
            rss_mb = after
        rounds.append(Round(lat, cpu, wl.check(inputs, results), wl.digest(results)))
        if maxrss_mb() > after:
            print(f"# round {len(rounds) - 1}'s check raised peak RSS to {maxrss_mb():.1f} MB; not counted")
    return rounds, rss_mb


def trace_rounds(wl, n_rounds, spans_path):
    """Re-run the first rounds' inputs in this process with every layer wrapped.

    Returns the traced (latencies, results, cpu) per round and the per-layer metrics.
    """
    run_round = getattr(wl, "run_round_here", wl.run_round)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [run_round(wl.inputs(i)) for i in range(n_rounds)]
    finally:
        tracer.restore()
    tracer.write(spans_path)
    return traced, tracer.layer_metrics()


def setup_times(mod):
    """Set-up times of SETUP_REPEATS fresh interpreters, each at reference speed."""
    return [measure.setup_time(mod.MODULES, mod.PAIRS) for _ in range(SETUP_REPEATS)]


def end_to_end(rounds, setup, peak_rss_mb, speed):
    """The end-to-end metrics.  Op and round CPU times are multiplied by `speed`
    (measure.speed_factor or the workload's own); set-up times come scaled."""
    lat = [x for rnd in rounds for x in rnd.latencies]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "round_s": (statistics.median([rnd.cpu for rnd in rounds]) * speed, "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3 * speed, "ms"),
        "op_tail_ms": (measure.tail(lat)[0] * 1e3 * speed, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (measure.SRC / "trirad" / "__init__.py").is_file():
        print(f"error: no trirad sources under {measure.SRC}; run from the root of a trirad checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(measure.SRC))
    from common import KNOWN

    mod = importlib.import_module(args.workload)

    setup = [] if args.trace else setup_times(mod)
    wl = mod.Workload(args.seed)
    wl.warm_up()
    n_rounds = max(TRACE_ROUNDS, round(args.seconds / mod.SECONDS_PER_ROUND))
    rounds, peak_rss_mb = timed_phase(wl, n_rounds)
    if hasattr(wl, "peak_rss_mb"):  # the work ran in child processes
        peak_rss_mb = wl.peak_rss_mb()

    statuses = [s for rnd in rounds for s in rnd.statuses]
    attempted = len(statuses)
    failed = sum(s is not None for s in statuses)
    unexpected = sorted({s for s in statuses if s is not None and s != KNOWN})
    correct = not unexpected
    print(f"# {args.workload} seed={args.seed}: {len(rounds)} rounds, {attempted} ops, "
          f"{failed} failed ({statuses.count(KNOWN)} known matrix_to_word defect)")
    for s in unexpected[:5]:
        print(f"# unexpected failure: {s}")

    if args.trace:
        if hasattr(wl, "trace_rounds"):
            traced, layer = wl.trace_rounds(TRACE_ROUNDS)
        else:
            traced, layer = trace_rounds(wl, TRACE_ROUNDS, OUT_DIR / f"spans-{args.workload}-{args.seed}")
        first = rounds[:TRACE_ROUNDS]
        if any(wl.digest(res) != rnd.digest for (_, res, _), rnd in zip(traced, first)):
            print("# traced and untraced runs gave different results")
            correct = False
        metrics = {name: (0, unit) for name, unit in tracing.LAYER_METRICS}
        for name, value in layer.items():
            metrics[name] = (value, metrics[name][1])
        untraced_busy = sum(sum(rnd.latencies) for rnd in first)
        metrics["trace.overhead_ratio"] = (sum(sum(lat) for lat, _, _ in traced) / untraced_busy, "ratio")
    else:
        n_tail = measure.tail([x for rnd in rounds for x in rnd.latencies])[1]
        print(f"# op_tail_ms is the mean of the slowest {n_tail} of {attempted} ops ({100 * n_tail / attempted:.3g} %)")
        speed = getattr(wl, "speed_factor", measure.speed_factor)()
        raw = end_to_end(rounds, setup, peak_rss_mb, 1.0)
        print(f"# speed factor {speed:.4f} from {len(measure.PROBES)} + {len(measure.IMPORT_PROBES)} probes; unscaled CPU times: "
              + ", ".join(f"{name} {v:.6g}" for name, (v, u) in raw.items() if name != "setup_s" and u in ("s", "ms")))
        metrics = end_to_end(rounds, setup, peak_rss_mb, speed)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
