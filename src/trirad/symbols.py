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
(b) and (c) against plain exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    cached = el._sym.get("Psi")
    if cached is None:
        pq = el.params.p * el.params.q
        val = psi(el) + Fraction(pq, 2) * el.asai() * (1 - el.trace_sign())
        if val.denominator != 1:
            raise InternalInconsistencyError("Psi is not an integer")
        cached = int(val)
        el._sym["Psi"] = cached
    return cached


def dedekind_Phi(el: Element) -> Fraction:
    pq = el.params.p * el.params.q
    s = _c_sign(el) * el.trace_sign()
    return Fraction(rademacher_Psi(el)) + Fraction(pq, 2) * s


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
    """s(a,c) = sum_k ((k/c))((ka/c)) with the sawtooth ((x))."""
    if c < 1:
        raise DomainError(f"dedekind_sum requires c >= 1, got {c}")

    def saw(num, den):
        if num % den == 0:
            return Fraction(0)
        return Fraction(num, den) - Fraction(num // den) - Fraction(1, 2)

    total = Fraction(0)
    for k in range(1, c):
        total += saw(k, c) * saw(k * a, c)
    return total


def phi23_formula(a: int, b: int, c: int, d: int) -> Fraction:
    """Dedekind's closed form for Phi on SL2(Z)."""
    if a * d - b * c != 1:
        raise DomainError("matrix must have determinant 1")
    if c == 0:
        return Fraction(b, d)
    sgn_c = 1 if c > 0 else -1
    return Fraction(a + d, c) - 12 * sgn_c * dedekind_sum(a, abs(c))


@dataclass(frozen=True)
class EpsilonCoding:
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
    w, _ = el.cyclic_reduce()
    sylls = w.syllables
    if sylls and sylls[0].gen != "S":
        sylls = sylls[1:] + sylls[:1]
    eps = []
    for i in range(0, len(sylls), 2):
        if sylls[i] != ("S", 1) or sylls[i + 1].gen != "U":
            raise InternalInconsistencyError("unexpected cyclic pattern for a hyperbolic class")
        eps.append(1 if sylls[i + 1].exp == 1 else -1)
    return EpsilonCoding(tuple(eps))


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class SymbolReport:
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
