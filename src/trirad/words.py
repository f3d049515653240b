"""Words over the generators S, U with amalgam normal forms.

A group word is a central sign (power of -I extracted) plus a syllable list.
In normal form, S-exponents lie in 1..p-1, U-exponents in 1..q-1, and adjacent
syllables alternate generators; this is the unique normal form coming from the
free-product-with-amalgamation structure Z/2pZ *_{Z/2Z} Z/2qZ.

Each word costs one pass: `normal_form` returns a normal input itself, so
`multiply` is a copy plus the seam, and `normal_inverse` writes the inverse of
a normal word in normal form directly.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Tuple

from trirad.errors import ParseError


class Syllable(NamedTuple):
    gen: str  # 'S' or 'U'
    exp: int


class GroupWord(NamedTuple):
    sign: int = 1
    syllables: Tuple[Syllable, ...] = ()

    def concat(self, other: "GroupWord") -> "GroupWord":
        """Raw concatenation, no normalization."""
        return GroupWord(self.sign * other.sign, self.syllables + other.syllables)

    def inverse(self) -> "GroupWord":
        return GroupWord(self.sign, tuple(Syllable(g, -e) for g, e in reversed(self.syllables)))

    def __len__(self):
        """The syllable count (so bool(w) is False on +-I); it breaks the tuple's _make and _replace."""
        return len(self.syllables)

    # a tuple's + and * would concatenate or repeat (sign, syllables); None makes them raise TypeError
    __add__ = __mul__ = __rmul__ = None


IDENTITY = GroupWord()


def normal_form(w: GroupWord, p: int, q: int) -> GroupWord:
    """Canonical form: reduce exponents mod the relation G^n = -I, merge, drop zeros.

    One pass over a stack: a syllable in range whose generator differs from the
    top's is pushed as the same object; any other is merged into the top, reduced
    by G^(kn + e) = (-1)^k G^e and dropped at e = 0.  An input that needs neither
    merge nor reduction is already normal and is returned itself.
    """
    sign, out, changed = w.sign, [], False
    for syl in w.syllables:
        gen, e = syl
        n = p if gen == "S" else q
        if out and out[-1][0] == gen:
            e += out.pop()[1]
        elif 0 < e < n:
            out.append(syl)
            continue
        changed = True
        k, e = divmod(e, n)
        if k & 1:
            sign = -sign
        if e:
            out.append(Syllable(gen, e))
    return GroupWord(sign, tuple(out)) if changed else w


def normal_inverse(w: GroupWord, p: int, q: int) -> GroupWord:
    """The inverse of a normal-form word, in normal form, with no `normal_form` pass.

    (sigma s_1...s_k)^-1 = sigma (-1)^k s_k^(n_k - e_k) ... s_1^(n_1 - e_1) for
    s_j = G^e_j, G of order n_j, because G^-e = G^(n-e) G^-n = -G^(n-e); the
    exponents n - e stay in 1..n-1 and the reversed syllables still alternate.
    """
    inv = tuple(Syllable(g, (p if g == "S" else q) - e) for g, e in reversed(w.syllables))
    return GroupWord(-w.sign if len(inv) & 1 else w.sign, inv)


def multiply(w1: GroupWord, w2: GroupWord, p: int, q: int) -> GroupWord:
    return normal_form(w1.concat(w2), p, q)


def cyclic_reduce(w: GroupWord, p: int, q: int):
    """Cyclically reduced form plus a conjugator g with w = g * reduced * g^-1.

    One pass over the normal form, scanned from both ends.  While the end
    syllables share a generator, the first syllable s is peeled off the front
    and folded into the last (conjugation by s): the exponents add modulo the
    order n, a sum of n or more wraps once (G^n = -I) and flips the sign, and a
    sum of exactly n drops the last syllable, which exposes the next one.  The
    syllables between the ends never change, so the reduced word is a slice of
    the normal form plus the folded last syllable, and the conjugator is the
    peeled prefix with sign +1 (it alternates, so it is in normal form).
    """
    cur = normal_form(w, p, q)
    sylls, sign = cur.syllables, cur.sign
    lo, hi = 0, len(sylls)  # reduced = sylls[lo:hi-1] + (last,)
    if hi < 2 or sylls[0].gen != sylls[-1].gen:
        return cur, IDENTITY
    last = sylls[-1]
    while hi - lo >= 2 and sylls[lo].gen == last.gen:
        gen, e = last
        e += sylls[lo].exp
        lo += 1
        n = p if gen == "S" else q
        if e >= n:
            sign, e = -sign, e - n
        if e:
            last = Syllable(gen, e)
        else:
            hi -= 1
            last = sylls[hi - 1]
    return GroupWord(sign, sylls[lo : hi - 1] + (last,)), GroupWord(1, sylls[:lo])


def minimal_period(syllables) -> int:
    """Length of the shortest cyclic period of the syllable sequence."""
    k = len(syllables)
    for m in range(1, k + 1):
        if k % m == 0 and syllables == syllables[:m] * (k // m):
            return m
    return k


# ---------------------------------------------------------------------------
# text form: [-] (S|U)^<int> (* (S|U)^<int>)*

_TOKEN = re.compile(r"\s*([SU])\s*(\^\s*(-?\d+))?\s*")


def parse_word(text: str) -> GroupWord:
    """Parse the shared word grammar; result is raw (caller applies normal_form)."""
    s = text
    stripped = s.strip()
    if stripped in ("I", "1"):
        return IDENTITY
    if stripped in ("-I", "-1", "- I", "- 1"):
        return GroupWord(-1, ())
    pos = 0
    sign = 1
    # optional leading minus
    m = re.match(r"\s*-\s*", s)
    if m:
        sign = -1
        pos = m.end()
    syllables = []
    expect_syllable = True
    while pos < len(s):
        if not expect_syllable:
            m = re.compile(r"\s*\*\s*").match(s, pos)
            if not m:
                if s[pos:].strip() == "":
                    break
                raise ParseError(f"expected '*' in word {text!r}", offset=pos)
            pos = m.end()
        m = _TOKEN.match(s, pos)
        if not m or m.end() == pos:
            raise ParseError(f"expected syllable S^k or U^k in word {text!r}", offset=pos)
        gen = m.group(1)
        exp = int(m.group(3)) if m.group(3) is not None else 1
        if exp == 0:
            raise ParseError(f"zero exponent not allowed in word {text!r}", offset=pos)
        syllables.append(Syllable(gen, exp))
        pos = m.end()
        expect_syllable = False
    if expect_syllable and sign == 1 and not syllables:
        raise ParseError(f"empty word {text!r}; write 'I' for the identity or '-I' for -I", offset=0)
    return GroupWord(sign, tuple(syllables))


def render_word(w: GroupWord) -> str:
    if not w.syllables:
        return "-I" if w.sign < 0 else "I"
    body = " * ".join(g if e == 1 else f"{g}^{e}" for g, e in w.syllables)
    return ("- " + body) if w.sign < 0 else body
