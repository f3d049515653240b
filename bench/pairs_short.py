"""pairs_short: the `trirad verify` suite on random pairs of short elements.

Op: one pair (x, y) of 1-6 syllable normal-form elements with random central
signs, the pairs going round-robin over PQ_LIST.  Most of the time goes to
exact matrix products (`Matrix2.__mul__`, `AlgebraicNumber.__mul__`): about
half of it under `linking_report` on hyperbolic x, a quarter under psi's
exact fallback.  `words.normal_form` and the float shadow take under a tenth.
Inputs share little.
"""

from __future__ import annotations

import math
from fractions import Fraction

from common import PQ_LIST, Failure, PerOpWorkload, certified_sign, random_word, round_rng
from trirad import group, linking, symbols
from trirad.group import Element, get_params

NAME = "pairs_short"
MODULES = ("trirad.symbols", "trirad.linking")
PAIRS = PQ_LIST
ROUND_PAIRS = 700
# A run has round(--seconds / SECONDS_PER_ROUND) rounds whatever they take, so
# every run of a seed has the same ops.
SECONDS_PER_ROUND = 2


def _op(inp):
    P, wx, wy = inp
    x, y = Element(P, wx), Element(P, wy)
    xy = x * y
    hyperbolic = x.classify() == "hyperbolic"
    return (
        symbols.psi(x),
        symbols.psi_via_cocycle(x),
        symbols.psi(y),
        symbols.psi(xy),
        group.cocycle_W_el(x, y, xy),
        symbols.rademacher_Psi(x),
        symbols.rademacher_Psi(x.conjugate(y)),
        symbols.rademacher_Psi(-x),
        symbols.dedekind_Phi(x),
        symbols.dedekind_Phi(y),
        symbols.dedekind_Phi(xy),
        symbols.euler_cocycle(x, y),
        linking.linking_report(x).to_dict() if hyperbolic else None,
    )


def _check(inp, res):
    """None when the op's outputs satisfy every identity, else the first violation."""
    if isinstance(res, Failure):
        return f"{res.kind}: {res.message}"
    P, wx, wy = inp
    pq, r = P.p * P.q, P.r
    psi_x, psi_c, psi_y, psi_xy, W, Psi_x, Psi_conj, Psi_neg, Phi_x, Phi_y, Phi_xy, euler, link = res
    if psi_x != psi_c:
        return "psi != psi_via_cocycle"
    if psi_xy - psi_x - psi_y != 2 * pq * W:
        return "2pq W coboundary"
    if not Psi_conj == Psi_x == Psi_neg:
        return "Psi not invariant under conjugation and negation"
    # exact matrices and certified signs, independent of the float shadow
    mx, my = group.word_to_matrix(wx, P), group.word_to_matrix(wy, P)
    mxy = mx * my
    s = certified_sign(mx.c) * certified_sign(my.c) * certified_sign(mxy.c)
    if Phi_xy - Phi_x - Phi_y != -Fraction(pq, 2) * s:
        return "Phi coboundary"
    if type(euler) is not int:
        return "euler_cocycle not an integer"
    tr = mx.a + mx.d
    if (link is not None) != (certified_sign(tr * tr - 4) > 0):
        return "linking_report ran on a non-hyperbolic x or skipped a hyperbolic one"
    if link is not None:
        lk = Fraction(Psi_x, r)  # Psi_e is Psi on hyperbolic elements
        expected = {
            "r": r,
            "psi_used": Psi_x,
            "lk_lens": f"{lk.numerator}/{lk.denominator}",
            "m_gamma": r // math.gcd(r, psi_x),
        }
        if any(link.get(k) != v for k, v in expected.items()):
            return "linking_report fields"
        if (2 * pq * link["n_gamma"] - psi_x) % r or link["lk_s3"] * link["components"] != Psi_x:
            return "linking_report n_gamma / S^3 linking"
    if (P.p, P.q) == (2, 3):
        a, b, c, d = (int(e.coeffs[0][0]) for e in mx.entries())
        if Phi_x != symbols.phi23_formula(a, b, c, d):
            return "Phi != Dedekind formula"
    return None


class Workload(PerOpWorkload):
    def __init__(self, seed):
        self.seed = seed
        self.params = [get_params(p, q) for p, q in PQ_LIST]

    def inputs(self, round_idx):
        rng = round_rng(NAME, self.seed, round_idx)
        out = []
        for i in range(ROUND_PAIRS):
            P = self.params[i % len(self.params)]
            out.append((P, random_word(P, rng, rng.randint(1, 6)), random_word(P, rng, rng.randint(1, 6))))
        return out

    def warm_up(self):
        self.run_round(self.inputs(-1)[:70])

    op = staticmethod(_op)
    check_one = staticmethod(_check)
