"""cli_oneshot: fresh `python -m trirad.cli` children, one at a time.

Op: one invocation.  A round runs `symbol --word`, `symbol --matrix`, `link`,
`lift`, `normal-form` and `code23`, with (p,q) rotating over PQ_LIST where the
command allows it.  An op's time is the child's CPU time (user + system),
which includes interpreter start-up and the import of `trirad.cli`; those
dominate it.  Each output is compared with values computed in-process after
the timed phase; the expected exit code is 0.

Matrices are passed as `--matrix=a,b;c,d` and words as `--word=...`: a value
that starts with '-' would otherwise be taken for an option by argparse, which
exits with code 2 before trirad runs.  Matrices come from (2,3) words of 1-60
S U^e pairs; `matrix_to_word` rejects most of those from about 29 bits (exit
7, a known defect), and those rejections are counted as failed ops.
"""

from __future__ import annotations

import json
import math
import statistics
import sys

import measure
from common import KNOWN, PQ_LIST, digest, random_word, round_rng
from trirad import group, linking, symbols
from trirad.group import Element, get_params
from trirad.words import GroupWord, Syllable, render_word

NAME = "cli_oneshot"
MODULES = ("trirad.cli",)
PAIRS = PQ_LIST
MATRIX_PAIRS_MAX = 60
PROBE_REPEATS = 5
# A run has round(--seconds / SECONDS_PER_ROUND) rounds whatever they take, so
# every run of a seed has the same ops.
SECONDS_PER_ROUND = 5


def _hyperbolic_word(P, rng):
    while True:
        w = random_word(P, rng, 2 * rng.randint(1, 4))
        if Element(P, w).classify() == "hyperbolic":
            return w


def _raw_word(P, rng):
    """A word that is not in normal form: repeated generators and large exponents."""
    n = rng.randint(2, 8)
    sylls = []
    for _ in range(n):
        gen = rng.choice("SU")
        order = P.p if gen == "S" else P.q
        e = rng.choice([k for k in range(-2 * order, 2 * order + 1) if k])
        sylls.append(Syllable(gen, e))
    return GroupWord(rng.choice((1, -1)), tuple(sylls))


def _output_lines(text):
    return "\n".join(line for line in text.splitlines() if not line.startswith("import time:"))


class Workload:
    def __init__(self, seed):
        self.seed = seed
        self.params = [get_params(p, q) for p, q in PQ_LIST]
        self.p23 = self.params[0]
        self.child_rss_kb = 0

    def inputs(self, round_idx):
        rng = round_rng(NAME, self.seed, round_idx)

        def pq(k):
            return self.params[(6 * round_idx + k) % len(self.params)]

        cmds = []
        P = pq(0)
        w = random_word(P, rng, rng.randint(1, 6))
        cmds.append(("symbol", P, w, ["symbol", f"--pq={P.p},{P.q}", f"--word={render_word(w)}"]))
        w = random_word(self.p23, rng, 2 * rng.randint(1, MATRIX_PAIRS_MAX), first="S")
        a, b, c, d = (int(x.coeffs[0][0]) for x in group.word_to_matrix(w, self.p23).entries())
        cmds.append(("matrix", self.p23, w, ["symbol", "--pq=2,3", f"--matrix={a},{b};{c},{d}"]))
        P = pq(1)
        w = _hyperbolic_word(P, rng)
        cmds.append(("link", P, w, ["link", f"--pq={P.p},{P.q}", f"--word={render_word(w)}"]))
        P = pq(2)
        w = random_word(P, rng, rng.randint(1, 6))
        cmds.append(("lift", P, w, ["lift", f"--pq={P.p},{P.q}", f"--word={render_word(w)}"]))
        P = pq(3)
        w = _raw_word(P, rng)
        cmds.append(("normal-form", P, w, ["normal-form", f"--pq={P.p},{P.q}", f"--word={render_word(w)}"]))
        w = _hyperbolic_word(self.p23, rng)
        cmds.append(("code23", self.p23, w, ["code23", "--pq=2,3", f"--word={render_word(w)}"]))
        return cmds

    def warm_up(self):
        measure.run_child([sys.executable, "-m", "trirad.cli", "--help"])

    def children(self, inputs, flags=()):
        """Run the round's commands one child at a time: a ChildResult each."""
        out = []
        for cmd in inputs:
            res = measure.run_child([sys.executable, *flags, "-m", "trirad.cli", *cmd[3]])
            self.child_rss_kb = max(self.child_rss_kb, res.maxrss_kb)
            out.append(res)
            measure.import_probe()
        return out

    def run_round(self, inputs):
        """Per-op child CPU times, (exit code, output) per op, and their sum."""
        res = self.children(inputs)
        lat = [r.cpu for r in res]
        return lat, [(r.returncode, r.output) for r in res], sum(lat)

    # CLI children are fresh interpreters: scaled by import probes
    speed_factor = staticmethod(measure.import_speed_factor)

    def peak_rss_mb(self):
        """Peak RSS of the largest CLI child so far."""
        return self.child_rss_kb / 1024

    def digest(self, results):
        return digest([(code, _output_lines(out)) for code, out in results])

    def check(self, inputs, results):
        return [_check(cmd, code, out) for cmd, (code, out) in zip(inputs, results)]

    def trace_rounds(self, n_rounds):
        """The CLI layer: interpreter start-up, imports and command time.

        Re-runs the first rounds' commands under `-X importtime`.  Returns the
        traced results per round and the cli.* metrics.
        """
        interp = statistics.median(
            measure.run_child([sys.executable, "-c", "pass"]).wall for _ in range(PROBE_REPEATS)
        )
        bare = measure.run_child([sys.executable, "-X", "importtime", "-c", "pass"]).output
        startup = {name for name, _, _ in measure.parse_importtime(bare)}
        traced, imports, scipy, command = [], [], [], []
        for i in range(n_rounds):
            res = self.children(self.inputs(i), flags=("-X", "importtime"))
            lat = [r.cpu for r in res]
            traced.append((lat, [(r.returncode, r.output) for r in res], sum(lat)))
            for r in res:
                total, sp = measure.import_seconds(measure.parse_importtime(r.output), startup)
                imports.append(total)
                scipy.append(sp)
                command.append(r.wall - interp - total)
        metrics = {
            "cli.interpreter_ms": interp * 1e3,
            "cli.import_ms": statistics.median(imports) * 1e3,
            "cli.import_scipy_ms": statistics.median(scipy) * 1e3,
            "cli.command_ms": statistics.median(command) * 1e3,
        }
        return traced, metrics


def _check(cmd, code, out):
    kind, P, w, _ = cmd
    if code is None:
        return "timed out"
    try:
        payload = json.loads(_output_lines(out))
    except ValueError:
        return f"exit {code}, output is not JSON: {out[-200:]!r}"
    if code != 0:
        if kind == "matrix" and code == 7 and payload.get("error") == "NotInGroupError":
            return KNOWN  # the matrix is a product of generators
        return f"exit {code}: {payload}"
    el = Element(P, w)
    head = {"pq": [P.p, P.q], "word": render_word(el.word)}
    if kind in ("symbol", "matrix"):
        expected = {**head, **symbols.symbol_report(el).to_dict()}
    elif kind == "link":
        expected = {**head, "space": "s3", **linking.linking_report(el).to_dict()}
    elif kind == "lift":
        return _check_lift(P, el, payload, head)
    elif kind == "normal-form":
        expected = {"pq": head["pq"], "normal_form": head["word"], "classification": el.classify()}
        numeric = payload.pop("matrix_numeric", None)
        exact = el.matrix.float_entries()
        if numeric is None or not all(math.isclose(u, v, rel_tol=1e-9, abs_tol=1e-9) for u, v in zip(numeric, exact)):
            return "normal-form matrix_numeric"
    else:  # code23
        coding = symbols.ghys_coding_23(el)
        Psi = symbols.rademacher_Psi(el)
        if coding.total != Psi:
            return "epsilon sum != Psi"
        expected = {**head, "epsilons": list(coding.epsilons), "sum": coding.total, "Psi": Psi}
    return None if payload == expected else f"{kind}: {payload} != {expected}"


def _check_lift(P, el, payload, head):
    """The level must satisfy psi = chi + 2pq level, chi the character of the word."""
    pq = P.p * P.q
    psi = symbols.psi(el)
    chi = (pq if el.word.sign < 0 else 0) + sum(-P.q * e if g == "S" else -P.p * e for g, e in el.word.syllables)
    if any(payload.get(k) != v for k, v in head.items()) or payload.get("psi") != psi:
        return "lift header"
    if psi != chi + 2 * pq * payload.get("level", 0):
        return "lift level"
    if len(payload.get("steps", ())) != len(el.word.syllables) + (el.word.sign < 0):
        return "lift steps"
    return None
