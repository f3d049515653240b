"""words_long: symbols of long random words, where exact arithmetic does the work.

Op: one element of 60-300 syllables on (2,3), (3,5) or (5,7): psi,
psi_via_cocycle, classify, Psi and Phi, and on (2,3) also the matrix -> word
round trip.  Beyond about 100 syllables the float shadow's error bound
overflows, so nearly all time is the exact ring multiply
(`AlgebraicNumber.__mul__` under `Matrix2.__mul__`) on growing coefficients.
Each round has one word from each stratum of LENGTH_STRATA for each pair,
so rounds cost about the same while the latency distribution stays smooth.
The lengths step through each stratum by the same low-discrepancy sequence
in every run (`stratum_length`), so every seed covers the same lengths; the
seed draws the words, whose cost at a given length varies much less.
Each round also has two (5,7) words of 780-900 syllables, whose coefficients
pass the float range, so that exactnum.sign's interval tier is exercised;
shorter words never reach it.

The (2,3) matrices reach about 23 bits near 80 syllables and 29 bits near
100; `matrix_to_word` rejects most matrices from 29 bits on (a known defect).
Those rejections are counted as failed ops.
"""

from __future__ import annotations

from fractions import Fraction

from common import KNOWN, Failure, PerOpWorkload, certified_sign, random_word, round_rng
from trirad import group, symbols, words
from trirad.errors import NotInGroupError
from trirad.group import Element, get_params

NAME = "words_long"
MODULES = ("trirad.symbols",)
PAIRS = ((2, 3), (3, 5), (5, 7))
LENGTH_STRATA = ((60, 90), (90, 120), (120, 150), (150, 180), (180, 210), (210, 240), (240, 270), (270, 300))
# (5,7) words this long have coefficients past the float range (about 1000
# bits), so exactnum.sign falls through to its mpmath intervals
INTERVAL_PAIR = (5, 7)
INTERVAL_STRATA = ((780, 840), (840, 900))
# A run has round(--seconds / SECONDS_PER_ROUND) rounds whatever they take, so
# every run of a seed has the same ops.
SECONDS_PER_ROUND = 2.5


def _op(inp):
    P, w = inp
    el = Element(P, w)
    out = [symbols.psi(el), symbols.psi_via_cocycle(el), el.classify(), symbols.rademacher_Psi(el), symbols.dedekind_Phi(el)]
    if (P.p, P.q) == (2, 3):
        try:
            out.append(group.matrix_to_word(el.matrix, P))
        except NotInGroupError as exc:
            out.append(Failure(type(exc).__name__, str(exc)))
    return tuple(out)


def _check(inp, res):
    """None, KNOWN, or the first violation, checked against exact arithmetic."""
    if isinstance(res, Failure):
        return f"{res.kind}: {res.message}"
    P, w = inp
    half_pq = Fraction(P.p * P.q, 2)
    psi, psi_c, cls, Psi, Phi = res[:5]
    if psi != psi_c:
        return "psi != psi_via_cocycle"
    m = group.word_to_matrix(w, P)
    tr = m.a + m.d
    s_tr = certified_sign(tr)
    expected_cls = {1: "hyperbolic", -1: "elliptic", 0: "parabolic"}[certified_sign(tr * tr - 4)]
    if cls != expected_cls:
        return f"classify gave {cls}, exact trace says {expected_cls}"
    s_c = certified_sign(m.c)
    asai = s_c or certified_sign(m.a)
    if Psi != psi + half_pq * asai * (1 - s_tr):
        return "Psi != psi + pq/2 sgn (1 - sgn tr)"
    if Phi != Psi + half_pq * s_c * s_tr:
        return "Phi != Psi + pq/2 sgn(c) sgn(tr)"
    if (P.p, P.q) == (2, 3):
        rec = res[5]
        if isinstance(rec, Failure):
            # the matrix is a product of generators, so the rejection is wrong
            return KNOWN if rec.kind == "NotInGroupError" else f"{rec.kind}: {rec.message}"
        if rec != words.normal_form(w, P.p, P.q):
            return "matrix_to_word did not give back the word"
    return None


def stratum_length(lo, hi, round_idx):
    """Length of round `round_idx`'s word from stratum [lo, hi]: golden-ratio steps through it."""
    return lo + int((hi - lo + 1) * ((round_idx + 1) * 0.6180339887498949 % 1.0))


class Workload(PerOpWorkload):
    def __init__(self, seed):
        self.seed = seed
        self.params = [get_params(p, q) for p, q in PAIRS]

    def inputs(self, round_idx):
        rng = round_rng(NAME, self.seed, round_idx)
        out = [(P, random_word(P, rng, stratum_length(lo, hi, round_idx))) for lo, hi in LENGTH_STRATA for P in self.params]
        P = get_params(*INTERVAL_PAIR)
        return out + [(P, random_word(P, rng, stratum_length(lo, hi, round_idx))) for lo, hi in INTERVAL_STRATA]

    def warm_up(self):
        rng = round_rng(NAME, self.seed, -1)
        self.run_round([(P, random_word(P, rng, 20)) for P in self.params])

    op = staticmethod(_op)
    check_one = staticmethod(_check)
