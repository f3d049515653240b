"""Rademacher symbols psi, Psi, Phi, Psi_h, Psi_e and their (2,3) oracles.

Two independent pipelines compute psi:

* `psi` multiplies standard lifts of the syllable powers left-to-right in the
  central extension, accumulating the level through the cocycle W, and reads
  the symbol off the character values chi(S~) = -q, chi(U~) = -p.
* `psi_via_cocycle` folds right-to-left with the coboundary relation
  psi(xy) = psi(x) + psi(y) + 2pq W(x,y), seeded on single syllable powers.

`psi_via_cocycle` takes the Asai sign of each suffix from `group.asai_signs`,
in three tiers: (a) the float shadow's margin, (b) the cusp words, whose c is 0
and whose sign is read off the word, (c) exact arithmetic for that step alone.
`psi` takes the sign of each prefix from `Element.prefix_signs`, the left fold
that `group` runs once per element for its shadow: tier (a) when it decides
every prefix, else exact arithmetic for all of them.  The pipelines share no
accumulator, cached result or tier beyond (a), so comparing them checks tiers
(b) and (c) against plain exact arithmetic.  Every other sign is read off the
word by `Element.asai` and `Element.trace_sign` (proof: `syllable_Psi`).

Psi is not computed from psi: `rademacher_Psi` reads it off the cyclically
reduced word, by `syllable_Psi` (Psi of an S...U word from its exponents) or,
for one syllable, from its seed and trace sign, with no matrix and no sign.
The identity 2 Psi = 2 psi + pq asai (1 - trace sign) that defines Psi is left
to `trirad verify` and the tests, where it checks the word against psi.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from trirad.errors import DomainError, InternalInconsistencyError
# not called here: bench/tracing.py wraps every module binding of `sign`, and
# its self-test reads `symbols.sign`
from trirad.exactnum import sign  # noqa: F401
from trirad.group import Element, asai_signs, is_cusp_word, w_from_signs


def _c_sign(el: Element) -> int:
    if is_cusp_word(el.word.syllables, el.params.p, el.params.q):
        return 0
    return el.asai()


def _seed(gen, e, p, q) -> int:
    """psi of a syllable power, which is also its character value."""
    return -e * q if gen == "S" else -e * p


# ---------------------------------------------------------------------------
# pipeline 1: character of the universal cover


def psi(el: Element) -> int:
    cached = el._sym.get("psi")
    if cached is None:
        p, q, w = el.params.p, el.params.q, el.word
        char = p * q if w.sign < 0 else 0
        level, prev = 0, w.sign
        for (gen, e), s in zip(w.syllables, el.prefix_signs()):
            # syllable powers have c = C_e > 0, so their Asai sign is +1
            level += w_from_signs(prev, 1, s)
            char += _seed(gen, e, p, q)
            prev = s
        cached = char + 2 * level * p * q
        el._sym["psi"] = cached
    return cached


# ---------------------------------------------------------------------------
# pipeline 2: coboundary fold with syllable seeds


def psi_via_cocycle(el: Element) -> int:
    p, q = el.params.p, el.params.q
    pq = p * q
    acc_psi, acc_asai = 0, 1
    for (gen, e), s in zip(reversed(el.word.syllables), asai_signs(el.params, el.word)):
        acc_psi += _seed(gen, e, p, q) + 2 * pq * w_from_signs(1, acc_asai, s)
        acc_asai = s
    if el.word.sign < 0:
        # psi(-gamma) = psi(gamma) + pq sgn(gamma)
        acc_psi += pq * acc_asai
    return acc_psi


# ---------------------------------------------------------------------------
# variants


def rademacher_Psi(el: Element) -> int:
    """Psi, read off the cached cyclically reduced word; no psi fold, no sign.

    Psi := psi + pq asai (1 - trace sign) / 2 is a class function and does not
    depend on the central sign, so it is Psi of the reduced word w, by cases:

    * no syllables (+-I): Psi(I) = psi(I) = 0 (asai +1, trace sign +1), and
      Psi(-I) = Psi(I).
    * one syllable, w = sigma G^e, G of order n: at sigma = 1, asai = 1 (c =
      C_e > 0), psi is the seed and the trace sign is sgn(n - 2e), so Psi is the
      seed plus pq, pq/2 or 0 as 2e > n, 2e = n (n, hence pq, even) or 2e < n.
    * two or more syllables (hyperbolic or parabolic): w alternates and its
      ends differ, so a rotation by one syllable, itself a conjugation, starts
      it with S; `syllable_Psi` proves the formula for that word.
    """
    cached = el._sym.get("Psi")
    if cached is None:
        p, q = el.params.p, el.params.q
        core = el.cyclic_reduce()[0]
        sylls = core.syllables
        if len(sylls) == 1:  # core.sign * trace sign is the trace sign of G^e
            cached = _seed(*sylls[0], p, q) + p * q * (1 - core.sign * el.trace_sign()) // 2
        elif sylls:
            i = sylls[0].gen == "U"  # rotate to start with S
            cached = syllable_Psi(sylls[i:] + sylls[:i], p, q)
        else:
            cached = 0
        el._sym["Psi"] = cached
    return cached


def syllable_Psi(syllables, p, q) -> int:
    """Psi of sigma * P_1...P_k, P_j = S^aj U^bj, from the syllables alone:
    Psi = 1/2 sum_j [q (p - 2 a_j) + p (q - 2 b_j)] = pq k + sum of the seeds;
    at (2,3), S U^b adds 3 - 2b, so Psi = #L - #R (S U = -L^-1, S U^2 = -R^-1).

    Signs: by the Chebyshev formulas (C_n > 0 for 0 < n < p, C_0 = C_p = 0; C'_n
    at q), -D P_j D, D = diag(1, -1), has positive diagonal, nonnegative off-diagonal,
    upper right C_(a-1) C'_b + C_a C'_(b-1), 0 only on S U, and lower left
    C_a C'_(b+1) + C_(a+1) C'_b, 0 only on the cusp pair (p-1, q-1).  So P_1...P_m
    = (-1)^m D N D with N >= 0 and N_11, N_22 > 0, and an off-diagonal entry of N
    is 0 only when it is 0 in every factor: the trace sign is sigma (-1)^k, the
    Asai sign -sigma (-1)^k, but sigma (-1)^k (c = 0) on the cusp word
    (S^(p-1) U^(q-1))^k = (-1)^k T^-k.
    Proof, sigma = 1, by induction on the coboundary fold over m: psi(P_1..P_m)
    = psi(P_1..P_m-1) + psi(P_m) + 2pq W, and psi(P_m) = -(q a_m + p b_m) + 2pq
    [cusp pair], as S^a, U^b have Asai sign +1.  By the signs above, step m adds
    -(q a_m + p b_m) + 2pq e_m, with e_m = [m odd] before the first non-cusp pair
    f, e_f = 0, e_m = [m even] after f: sum e_m = floor(k/2) (on the cusp word
    e_m = [m odd], sum ceil(k/2)).  Then 2 Psi = 2 psi + pq asai (1 - trace sign)
    gives the formula, and psi(-g) = psi(g) + pq asai(g) leaves Psi unchanged at
    sigma = -1.  So psi = Psi when sigma (-1)^k = 1, else Psi - pq (Psi + pq on
    the cusp word).

    Any normal-form word is sigma [U^b] P_1...P_k [S^a] of n syllables.  With
    row 2 of U^b (C'_b, -C'_(b-1)) and column 1 of S^a (-C_(a-1), C_a),
    sigma (-1)^k c is C'_b N_11 + C'_(b-1) N_21 > 0 on U...U, N_21 C_(a-1) +
    N_22 C_a > 0 on S...S, and on U...S -(C'_b N_11 C_(a-1) + C'_b N_12 C_a +
    C'_(b-1) N_21 C_(a-1) + C'_(b-1) N_22 C_a), which is < 0 (C'_b, C_a, N_11,
    N_22 > 0) unless a = b = 1 and N_12 = 0: on (U S)^(k+1) = (-T)^(k+1), where
    a = sigma (-1)^(k+1).  So the Asai sign (`Element.asai`) is
    sigma (-1)^(n // 2), negated when n >= 2 is even, s_1 is a power of S and
    the word is not the cusp word.  The trace sign (`Element.trace_sign`), a
    class function, is sigma sgn(n - 2e) on sigma G^e (tr G^e = 2 cos(pi e / n),
    n the order of G), sigma on +-I, and on 2k cyclically reduced syllables
    that of the rotation that starts with S.
    """
    k, odd = divmod(len(syllables), 2)
    total, pairs = p * q * k, iter(syllables)
    for (s, a), (u, b) in zip(pairs, pairs):  # the seeds are -q a and -p b
        if s != "S" or u != "U" or not (0 < a < p and 0 < b < q):
            break
        total -= q * a + p * b
    else:
        if k and not odd:
            return total
    raise DomainError("syllable_Psi needs a normal-form word S^a1 U^b1 ... S^ak U^bk")


def dedekind_Phi(el: Element) -> Fraction:
    pq = el.params.p * el.params.q
    return Fraction(2 * rademacher_Psi(el) + pq * _c_sign(el) * el.trace_sign(), 2)


def homogeneous_Psi_h(el: Element) -> int:
    if el.classify() == "elliptic":
        return 0
    return rademacher_Psi(el)


def modified_Psi_e(el: Element) -> int:
    if el.classify() != "elliptic":
        return rademacher_Psi(el)
    w, _ = el.cyclic_reduce()
    return _seed(*w.syllables[0], el.params.p, el.params.q)


def euler_cocycle(el1: Element, el2: Element) -> int:
    if el1.params is not el2.params:
        raise DomainError("mixed ambient (p,q) parameters")
    pq = el1.params.p * el1.params.q
    delta = modified_Psi_e(el1 * el2) - modified_Psi_e(el1) - modified_Psi_e(el2)
    quot, rem = divmod(-delta, pq)
    if rem:
        raise InternalInconsistencyError("Euler cocycle value is not an integer")
    return quot


# ---------------------------------------------------------------------------
# (2,3) oracles


def dedekind_sum(a: int, c: int) -> Fraction:
    """s(a,c) = sum_{k<c} ((k/c))((ka/c)) with the sawtooth ((x)), in O(log c) steps.

    s(a,c) = s(a/g, c/g) for g = gcd(a,c), s(a,c) = s(a mod c, c), and for coprime
    a, c >= 1 reciprocity gives s(a,c) + s(c,a) = (a^2 + c^2 + 1)/(12ac) - 1/4
    (Rademacher and Grosswald, Dedekind Sums, 1972); s(0, 1) = 0 ends the chain.
    """
    if c < 1:
        raise DomainError(f"dedekind_sum requires c >= 1, got {c}")
    g = math.gcd(a, c)
    a, c = a // g % (c // g), c // g
    num, den, sgn = 0, 1, 1  # 12 s(a,c) = num / den
    while a:  # 0 < a < c, coprime: add sgn (a^2 + c^2 + 1 - 3ac)/(ac)
        num, den = num * a * c + sgn * (a * a + c * c + 1 - 3 * a * c) * den, den * a * c
        a, c, sgn = c % a, a, -sgn
    return Fraction(num, 12 * den)


def phi23_formula(a: int, b: int, c: int, d: int) -> Fraction:
    """Dedekind's closed form for Phi on SL2(Z)."""
    if a * d - b * c != 1:
        raise DomainError("matrix must have determinant 1")
    if c == 0:
        return Fraction(b, d)
    sgn_c = 1 if c > 0 else -1
    return Fraction(a + d, c) - 12 * sgn_c * dedekind_sum(a, abs(c))


class EpsilonCoding(NamedTuple):
    epsilons: tuple

    @property
    def total(self):
        return sum(self.epsilons)


def ghys_coding_23(el: Element) -> EpsilonCoding:
    """Lorenz-template coding of a (2,3) hyperbolic class: S U^(eps_i) blocks."""
    if (el.params.p, el.params.q) != (2, 3):
        raise DomainError("epsilon coding is defined for (p,q) = (2,3) only")
    if el.classify() != "hyperbolic":
        raise DomainError("epsilon coding requires a hyperbolic element")
    # the reduced word alternates S and U^b, b = 1 or 2, read from its first S on;
    # eps = 3 - 2b is syllable_Psi's term
    sylls = el.cyclic_reduce()[0].syllables
    eps = tuple(3 - 2 * e for g, e in sylls if g == "U")
    return EpsilonCoding(eps[1:] + eps[:1] if sylls[0].gen == "U" else eps)


# ---------------------------------------------------------------------------
# reports


class SymbolReport(NamedTuple):
    psi: int
    Psi: int
    Phi: Fraction
    Psi_h: int
    Psi_e: int
    classification: str
    asai_sign: int
    trace_sign: int

    def to_dict(self):
        phi2 = 2 * self.Phi
        if phi2.denominator != 1:
            raise InternalInconsistencyError("Phi denominator exceeds 2")
        return {
            "psi": self.psi,
            "Psi": self.Psi,
            "Phi": f"{phi2.numerator}/2",
            "Psi_h": self.Psi_h,
            "Psi_e": self.Psi_e,
            "classification": self.classification,
            "asai_sign": self.asai_sign,
            "trace_sign": self.trace_sign,
        }


def symbol_report(el: Element) -> SymbolReport:
    return SymbolReport(
        psi=psi(el),
        Psi=rademacher_Psi(el),
        Phi=dedekind_Phi(el),
        Psi_h=homogeneous_Psi_h(el),
        Psi_e=modified_Psi_e(el),
        classification=el.classify(),
        asai_sign=el.asai(),
        trace_sign=el.trace_sign(),
    )
