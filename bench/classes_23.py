"""classes_23: trace-bounded class enumeration, arctan statistics and quadrature.

A round runs `enumerate_classes_by_trace(2, 3, MAX_TRACE)` and
`distribution_stats(table, -1, 1)`, then `cycle_integral_23` and
`winding_residual_23` on the normalized classes of at most 12 syllables, in
an order drawn from the seed.  Op: one class of the table.  A class's time
is its share of the enumeration and statistics plus its own quadrature, in
CPU time of the round's interpreter.

The enumeration runs with max_workers=1, one thread like the rest of the
benchmark.  Its default thread pool spreads the work over both vCPUs of the
shared host, whose speeds change independently of each other, so its CPU
time would not follow the speed probes taken in the main thread (the
spread of op_p50_ms over five seeds was 11 % with the pool, 1 % without).
The pool's own cost or gain is therefore not measured here.

This is the only workload where the enumeration's own code (DFS, dedupe) and
the q-series / quadrature code do most of the work.  The L/R words share long
prefixes, unlike the inputs of pairs_short.

Every round enumerates the same table, so each round runs in a fresh
interpreter (`python3 bench/classes_23.py ORDER_SEED`, which prints the
round's op times, CPU time, results and speed probes as one pickled line):
no cache of the program carries over from one round to the next, as in one
real run.
"""

from __future__ import annotations

import base64
import pickle
import random
import sys
import time

import measure
from common import Failure, digest, round_rng
from trirad import analytic, symbols
from trirad.group import Element, get_params
from trirad.words import render_word

NAME = "classes_23"
MODULES = ("trirad.analytic",)
PAIRS = ((2, 3),)
MAX_TRACE = 100
QUAD_SYLLABLES = 12
# sha256 of the (word, psi, Psi) rows of the MAX_TRACE table
GOLDEN_ROWS = "9eb58ef6898cc525f811451a8fe27f7febd7a27c0e32b592919a364b97a1c5c1"
KS_MAX = 0.15
CYCLE_RESIDUAL_MAX = 1e-4
WINDING_RESIDUAL_MAX = 0.01
RESULT_TAG = "classes_23 round:"
# A run has round(--seconds / SECONDS_PER_ROUND) rounds whatever they take, so
# every run of a seed has the same ops.
SECONDS_PER_ROUND = 5


def table_rows(table):
    return [(render_word(e.word), e.psi, e.Psi) for e in table.entries]


def quadrature(params, word):
    el = Element(params, word, _normalized=True)
    if el.trace_sign() < 0:
        el = -el
    if el.asai() < 0:
        el = el.inverse()
    ci = analytic.cycle_integral_23(el)
    winding, residual = analytic.winding_residual_23(el)
    return ci.value, ci.psi, ci.residual, winding, residual


def round_in_process(order_seed):
    """One round in this process: per-class CPU times, (table, stats, quadrature), round CPU time."""
    params = get_params(2, 3)
    clock = time.process_time
    measure.probe(3)
    t0 = clock()
    table = analytic.enumerate_classes_by_trace(params, MAX_TRACE, max_workers=1)
    stats = analytic.distribution_stats(table, -1, 1)
    cpu = clock() - t0
    measure.probe(3)
    lat = [cpu / len(table.entries)] * len(table.entries)
    short = [i for i, e in enumerate(table.entries) if len(e.word) <= QUAD_SYLLABLES]
    random.Random(order_seed).shuffle(short)
    quad = {}
    for i in short:
        t1 = clock()
        try:
            quad[i] = quadrature(params, table.entries[i].word)
        except Exception as exc:  # counted by the checks; the run goes on
            quad[i] = Failure(type(exc).__name__, str(exc))
        dt = clock() - t1
        lat[i] += dt
        cpu += dt
        measure.probe()  # a quadrature takes about 0.1 s
    return lat, (table, stats, quad), cpu


class Workload:
    def __init__(self, seed):
        self.seed = seed
        self.params = get_params(2, 3)
        self.child_rss_kb = 0
        self._checked_tables = {}

    def inputs(self, round_idx):
        return round_rng(NAME, self.seed, round_idx).getrandbits(64)

    def warm_up(self):
        """Nothing to warm: each round is a fresh interpreter."""

    def run_round(self, order_seed):
        res = measure.run_child([sys.executable, __file__, str(order_seed)])
        lines = [line for line in res.output.splitlines() if line.startswith(RESULT_TAG)]
        if res.returncode != 0 or len(lines) != 1:
            raise RuntimeError(f"classes_23 round exited with {res.returncode}:\n{res.output[-2000:]}")
        self.child_rss_kb = max(self.child_rss_kb, res.maxrss_kb)
        out, probes = pickle.loads(base64.b64decode(lines[0][len(RESULT_TAG):]))
        measure.PROBES.extend(probes)
        return out

    run_round_here = staticmethod(round_in_process)

    def peak_rss_mb(self):
        """Peak RSS of the largest round's interpreter."""
        return self.child_rss_kb / 1024

    def digest(self, results):
        table, stats, quad = results
        return digest((table_rows(table), stats, sorted(quad.items())))

    def check(self, order_seed, results):
        table, stats, quad = results
        rows = table_rows(table)
        if digest(rows) != GOLDEN_ROWS:
            return ["class table differs from the golden digest"] * len(rows)
        if not stats.ks_distance < KS_MAX:
            return [f"KS distance {stats.ks_distance} >= {KS_MAX}"] * len(rows)
        statuses = list(self._ghys_statuses(table))
        for i, q in quad.items():
            if statuses[i] is not None:
                continue
            if isinstance(q, Failure):
                statuses[i] = f"{q.kind}: {q.message}"
                continue
            _, psi, cycle_residual, winding, winding_residual = q
            if not cycle_residual < CYCLE_RESIDUAL_MAX:
                statuses[i] = f"cycle residual {cycle_residual}"
            elif winding != psi:
                statuses[i] = f"winding {winding} != psi {psi}"
            elif not winding_residual < WINDING_RESIDUAL_MAX:
                statuses[i] = f"winding residual {winding_residual}"
        return statuses

    def _ghys_statuses(self, table):
        """Psi against the epsilon-sum of the Lorenz coding, once per distinct table."""
        key = digest(table_rows(table))
        if key not in self._checked_tables:
            out = []
            for e in table.entries:
                total = symbols.ghys_coding_23(Element(self.params, e.word, _normalized=True)).total
                out.append(None if total == e.Psi else f"epsilon sum {total} != Psi {e.Psi}")
            self._checked_tables[key] = out
        return self._checked_tables[key]


if __name__ == "__main__":
    out = round_in_process(int(sys.argv[1]))
    print(RESULT_TAG + base64.b64encode(pickle.dumps((out, measure.PROBES))).decode("ascii"))
