"""Triangle-group elements: words, exact matrices, lifts, and the cocycle W.

Elements carry their normal-form word as the authoritative representation; the
exact matrix (entries in Q(alpha, beta)) and a float shadow with a per-entry
error bound are computed lazily; the float shadow equals the exact matrix up
to a positive power of two (see `_fmul`).

`Element.asai` (the sign of c, or of a when c = 0), `Element.trace_sign` and
`Element.classify` take no arithmetic: they read the word and its cyclic
reduction (`symbols.syllable_Psi` proves the sign rules), and `primitive_root`
orients and checks its root on words too.  `asai_signs`, which
`symbols.psi_via_cocycle` consumes, takes the Asai sign of every suffix of a
word from arithmetic instead, by the first of three tiers that can decide it:

(a) the float shadow, when the entry clears its error bound by the factor
    _MARGIN; the syllable shadows take entries and bounds from
    `exactnum.AlgebraicNumber.float_with_error`, and `_fmul` carries both
    through each product;
(b) the word: c = 0 exactly for the cusp words (U S)^k and (S^(p-1) U^(q-1))^k,
    because Stab(inf) = +-<T>, and their sign is read off k (`is_cusp_word`);
(c) certified exact arithmetic on the exact matrix.

`word_to_fmat` is the one left fold of a shadow, with the tier (a) Asai sign of
every prefix; `Element.fmat` caches both for `float_trace` and `prefix_signs`
(read by `symbols.psi` and `trirad lift`), which takes the shadow's signs when
they decide every prefix, else exact signs for every prefix, so `psi` shares
no tier beyond (a) with `asai_signs`.

`matrix_to_word` recognizes an exact matrix by the ping-pong lemma for the
amalgam <S> *_{+-I} <U>: the sign of Re m(i) names the generator of the first
syllable, the one exponent whose inverse sends m(i) off that side names the
syllable, and peeling it exactly repeats the step on the rest.  It works for
every (p,q) with exact signs only.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from trirad import exactnum, words
from trirad.errors import DomainError, InternalInconsistencyError, NotInGroupError, NumericError
from trirad.exactnum import AlgebraicNumber, chebyshev_table, sign
from trirad.words import GroupWord, Syllable, cyclic_reduce, minimal_period, multiply, normal_form, normal_inverse

# the relative error bound beyond which a float read off the ring (a trace, a matrix) is refused
FLOAT_RTOL = 1e-6


class Matrix2(NamedTuple):
    a: AlgebraicNumber
    b: AlgebraicNumber
    c: AlgebraicNumber
    d: AlgebraicNumber

    def __mul__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self):
        return Matrix2(-self.a, -self.b, -self.c, -self.d)

    # a tuple's + and int * would concatenate or repeat the entries; None makes them raise TypeError
    __add__ = __rmul__ = None

    def inverse(self) -> "Matrix2":
        # adjugate; valid since det = 1
        return Matrix2(self.d, -self.b, -self.c, self.a)

    @property
    def trace(self):
        return self.a + self.d

    def det(self):
        return self.a * self.d - self.b * self.c

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def float_entries(self):
        """The entries as floats; NumericError unless each is within FLOAT_RTOL * max|entry| of its exact value."""
        try:
            vals, errs, _ = _shadow(self)
        except OverflowError:
            raise NumericError("matrix entry beyond the float range") from None
        if not max(errs) <= FLOAT_RTOL * max(map(abs, vals)) < math.inf:  # an infinite entry fails the right side
            raise NumericError(f"matrix entries not vouched for to a relative {FLOAT_RTOL:g} in floats")
        return vals


# float shadow: ((a, b, c, d), (ea, eb, ec, ed), k) with |2^-k * exact entry - entry| <= its e

_GAMMA2 = 2 * 2.0**-53 / (1 - 2 * 2.0**-53)
_RESCALE_AT = 2.0**500


def _fmul(A, B):
    """Product of two float shadows, with the componentwise error bound

        E_out <= E_A |B~| + (|A~| + E_A) E_B + gamma_2 |A~| |B~|

    (Higham, Accuracy and Stability of Numerical Algorithms, section 3.5): the
    first two terms carry the input errors, the last bounds the rounding of each
    two-term dot product.  The bound is itself evaluated in floats and may come
    out low by a few units in the last place; `_decided_sign` asks for a factor
    _MARGIN = 64 above it, which absorbs that.

    When the product of the inputs' entry sums passes _RESCALE_AT, entries and
    bounds are scaled by the 2^-j that brings the largest |entry| into [0.5, 1),
    and j is added to k.  So every shadow has entry sum at most 2^500 and no
    product overflows.  Power-of-two scaling is exact, so the bound holds and
    no sign changes, except that ldexp rounds a value below 2^-1022 by at most
    2^-1075; the 2^-1074 added to each scaled bound covers that.
    """
    (a1, b1, c1, d1), (ea1, eb1, ec1, ed1), k1 = A
    (a2, b2, c2, d2), (ea2, eb2, ec2, ed2), k2 = B
    xa, xb, xc, xd = abs(a1), abs(b1), abs(c1), abs(d1)
    ya, yb, yc, yd = abs(a2), abs(b2), abs(c2), abs(d2)
    g = _GAMMA2
    out = (
        a1 * a2 + b1 * c2,
        a1 * b2 + b1 * d2,
        c1 * a2 + d1 * c2,
        c1 * b2 + d1 * d2,
    )
    # written out entry by entry: a helper for the 2x2 products costs 1.7x the time
    err = (
        ea1 * ya + eb1 * yc + (xa + ea1) * ea2 + (xb + eb1) * ec2 + g * (xa * ya + xb * yc),
        ea1 * yb + eb1 * yd + (xa + ea1) * eb2 + (xb + eb1) * ed2 + g * (xa * yb + xb * yd),
        ec1 * ya + ed1 * yc + (xc + ec1) * ea2 + (xd + ed1) * ec2 + g * (xc * ya + xd * yc),
        ec1 * yb + ed1 * yd + (xc + ec1) * eb2 + (xd + ed1) * ed2 + g * (xc * yb + xd * yd),
    )
    if (xa + xb + xc + xd) * (ya + yb + yc + yd) > _RESCALE_AT:
        j = math.frexp(max(map(abs, out)))[1]
        out = tuple(math.ldexp(x, -j) for x in out)
        err = tuple(math.ldexp(e, -j) + 2.0**-1074 for e in err)
        return out, err, k1 + k2 + j
    return out, err, k1 + k2


_MARGIN = 64.0


def _decided_sign(x, err):
    """Sign of x from the float shadow, or None when too close to call."""
    if abs(x) > _MARGIN * err + 1e-300:
        return 1 if x > 0 else -1
    return None


def _shadow(m: Matrix2):
    """Shadow of an exact matrix: each entry's float and bound from `AlgebraicNumber.float_with_error`."""
    vals, errs = zip(*(x.float_with_error() for x in m.entries()))
    return vals, errs, 0


class GroupParams:
    """Ambient data for Gamma_{p,q}: field, generators, syllable-power caches."""

    def __init__(self, p, q):
        self.field = exactnum.get_field(p, q)
        self.p = p
        self.q = q
        self.r = p * q - p - q
        if math.gcd(self.r, 2 * p * q) != 1:
            raise InternalInconsistencyError("gcd(r, 2pq) != 1")
        f = self.field
        self.lam = f.alpha + f.beta
        # syllable powers via the Chebyshev formulas, from one table C_0..C_n per generator
        #   S^n = (-C_{n-1}  -C_n ; C_n  C_{n+1})  at cos(pi/p)
        #   U^n = ( C_{n+1}  -C_n ; C_n  -C_{n-1}) at cos(pi/q)
        c = chebyshev_table(p, f.alpha)
        self._spow = [None] + [Matrix2(-c[n - 1], -c[n], c[n], c[n + 1]) for n in range(1, p)]
        c = chebyshev_table(q, f.beta)
        self._upow = [None] + [Matrix2(c[n + 1], -c[n], c[n], -c[n - 1]) for n in range(1, q)]
        self.S = self._spow[1]
        self.U = self._upow[1]
        self.T = -(self.U * self.S)
        self.identity_matrix = Matrix2(f.one, f.zero, f.zero, f.one)
        self._spow_f = [None] + [_shadow(m) for m in self._spow[1:]]
        self._upow_f = [None] + [_shadow(m) for m in self._upow[1:]]
        self.identity_f = central_fmat(1)

    def __repr__(self):
        return f"GroupParams(p={self.p}, q={self.q})"

    def syllable_matrix(self, gen, e) -> Matrix2:
        return self._spow[e] if gen == "S" else self._upow[e]

    def syllable_fmat(self, gen, e):
        return self._spow_f[e] if gen == "S" else self._upow_f[e]


@lru_cache(maxsize=None)
def get_params(p, q) -> GroupParams:
    if not (2 <= p < q):
        raise DomainError(f"need 2 <= p < q, got ({p},{q})")
    if math.gcd(p, q) != 1:
        raise DomainError(f"p and q must be coprime, got ({p},{q})")
    return GroupParams(p, q)


def word_to_matrix(w: GroupWord, params: GroupParams) -> Matrix2:
    m = params.identity_matrix
    for gen, e in w.syllables:
        m = m * params.syllable_matrix(gen, e)
    if w.sign < 0:
        m = -m
    return m


def central_fmat(sign):
    """Float shadow of sign * I."""
    return (float(sign), 0.0, 0.0, float(sign)), (0.0,) * 4, 0


def word_to_fmat(w: GroupWord, params: GroupParams):
    """(shadow of w, signs): the left fold of the float shadow over w.

    signs[i] is the Asai sign of the prefix sign * s1...s(i+1) when the
    prefix's shadow decides it (tier (a)), else None.
    """
    fm, signs = central_fmat(w.sign), []
    for gen, e in w.syllables:
        fm = _fmul(fm, params.syllable_fmat(gen, e))
        signs.append(_decided_sign(fm[0][2], fm[1][2]))
    return fm, signs


class Element:
    """A group element: normal-form word plus lazy matrix caches."""

    __slots__ = ("params", "word", "_matrix", "_fmat", "_prefix", "_sym")

    def __init__(self, params: GroupParams, word: GroupWord, _normalized=False):
        self.params = params
        self.word = word if _normalized else normal_form(word, params.p, params.q)
        self._matrix = None
        self._fmat = None
        self._prefix = None  # prefix Asai signs, filled with the shadow
        self._sym = {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, params):
        return cls(params, words.IDENTITY, _normalized=True)

    @classmethod
    def generator(cls, params, gen, exp=1):
        return cls(params, GroupWord(1, (Syllable(gen, exp),)))

    @classmethod
    def translation(cls, params, k=1):
        """T^k in normal form: T = -U S, T^k = (-1)^k (U S)^k, T^-k = (-1)^k (S^(p-1) U^(q-1))^k."""
        unit = _US if k >= 0 else (Syllable("S", params.p - 1), Syllable("U", params.q - 1))
        return cls(params, GroupWord(-1 if k & 1 else 1, unit * abs(k)), _normalized=True)

    # -- group structure ----------------------------------------------------

    def __mul__(self, other: "Element") -> "Element":
        if self.params is not other.params:
            raise DomainError("mixed ambient (p,q) parameters")
        return Element(self.params, multiply(self.word, other.word, self.params.p, self.params.q), _normalized=True)

    def inverse(self) -> "Element":
        """self^-1, written in normal form by `words.normal_inverse` (G^-e = -G^(n-e)), with no normal_form pass."""
        return Element(self.params, normal_inverse(self.word, self.params.p, self.params.q), _normalized=True)

    def __neg__(self):
        """-self; a cached cyclic reduction carries over, since -(g c g^-1) = g (-c) g^-1."""
        neg = Element(self.params, GroupWord(-self.word.sign, self.word.syllables), _normalized=True)
        cached = self._sym.get("cyclic")
        if cached is not None:
            core, g = cached
            neg._sym["cyclic"] = (GroupWord(-core.sign, core.syllables), g)
        return neg

    def __pow__(self, n: int) -> "Element":
        """self^n = g c^n g^-1 from the cached cyclic reduction self = g c g^-1.

        A cyclically reduced c of two or more syllables starts and ends with
        different generators, so c^n (or (c^-1)^|n|, c^-1 from `normal_inverse`)
        is its syllables repeated; one `normal_form` pass cancels across g and
        folds a c of at most one syllable (+-I, or a power of S or U): linear in |n|.
        """
        if -1 <= n <= 1:
            return (self.inverse(), Element.identity(self.params), self)[n + 1]
        p, q = self.params.p, self.params.q
        core, g = self.cyclic_reduce()
        base = core if n > 0 else normal_inverse(core, p, q)
        k = abs(n)
        power = GroupWord(base.sign**k, base.syllables * k)
        return Element(self.params, g.concat(power).concat(g.inverse()))

    def conjugate(self, g: "Element") -> "Element":
        """g^-1 * self * g."""
        return g.inverse() * self * g

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.params is other.params
            and self.word == other.word
        )

    def __hash__(self):
        return hash((self.params.p, self.params.q, self.word))

    def __repr__(self):
        return f"Element({self.params.p},{self.params.q}: {words.render_word(self.word)})"

    # -- matrices -----------------------------------------------------------

    @property
    def matrix(self) -> Matrix2:
        if self._matrix is None:
            self._matrix = word_to_matrix(self.word, self.params)
        return self._matrix

    @property
    def fmat(self):
        if self._fmat is None:
            self._fmat, self._prefix = word_to_fmat(self.word, self.params)
        return self._fmat

    def prefix_signs(self) -> list:
        """Asai signs of the prefixes sign * s1...si, shortest first; cached.

        Two tiers for the whole word, not per prefix: the shadow's signs when
        its margin decides every one, else exact `asai_sign` on every prefix
        product, built left to right.  The last of those is the whole word, so
        it becomes the exact matrix when that is unset.  The whole-word exact
        re-run is kept on purpose: `psi` then shares no tier beyond (a) with
        `asai_signs`, and bench/test_bench_helpers.py pins it (psi of the
        (2,3) word U S U, whose prefix U S has c = 0, takes four exact signs).
        """
        self.fmat  # folds the shadow and its prefix signs once
        if None in self._prefix:
            params, w = self.params, self.word
            m = params.identity_matrix if w.sign > 0 else -params.identity_matrix
            signs = []
            for syl in w.syllables:
                m = m * params.syllable_matrix(*syl)
                signs.append(asai_sign(m))
            if self._matrix is None:
                self._matrix = m
            self._prefix = signs
        return self._prefix

    def float_trace(self) -> float:
        """The trace as a float, the shadow's scale undone.

        NumericError when the trace is beyond the float range, or when the
        shadow's bound ea + ed passes FLOAT_RTOL max(|trace|, 2): relative to
        the trace for the non-elliptic elements, where |trace| >= 2, and to 2
        for the elliptic ones, whose traces 2cos(k pi/n) may be 0.  The sum of
        the two entries adds at most 2^-53 |trace| more.
        """
        t4, e4, k = self.fmat
        t = t4[0] + t4[3]
        if e4[0] + e4[3] > FLOAT_RTOL * max(abs(t), math.ldexp(2.0, -k)):
            raise NumericError(f"trace not vouched for to a relative {FLOAT_RTOL:g} in floats")
        try:
            return math.ldexp(t, k)
        except OverflowError:
            raise NumericError("trace beyond the float range") from None

    # -- certified predicates ------------------------------------------------

    def trace_sign(self) -> int:
        """Sign of the trace, read off the cached cyclic reduction (rule and proof: `symbols.syllable_Psi`)."""
        core = self.cyclic_reduce()[0]
        sylls = core.syllables
        if len(sylls) == 1:
            gen, e = sylls[0]
            n = self.params.p if gen == "S" else self.params.q
            return core.sign * ((n > 2 * e) - (n < 2 * e))
        return core.sign * (-1) ** (len(sylls) // 2)

    def asai(self) -> int:
        """Asai sign, read off the word's shape (rule and proof: `symbols.syllable_Psi`)."""
        sylls = self.word.syllables
        k, odd = divmod(len(sylls), 2)
        flip = k and not odd and sylls[0].gen == "S" and not is_cusp_word(sylls, self.params.p, self.params.q)
        return self.word.sign * (-1) ** (k + flip)

    def classify(self) -> str:
        """Read off the cyclically reduced word.

        Conjugacy classes of the amalgam are the rotation classes of cyclically
        reduced words.  Elliptic elements are conjugate into <S> or <U> (one
        syllable), and parabolic ones into Stab(inf) = +-<T> (a rotation of a
        cusp word); every other element with at least two syllables is
        hyperbolic.  The answer is cached with the element's symbols.
        """
        cached = self._sym.get("class")
        if cached is None:
            p, q = self.params.p, self.params.q
            sylls = self.cyclic_reduce()[0].syllables
            if len(sylls) < 2:
                cached = ("central", "elliptic")[len(sylls)]
            elif is_cusp_word(sylls, p, q) or is_cusp_word(sylls[1:] + sylls[:1], p, q):
                cached = "parabolic"
            else:
                cached = "hyperbolic"
            self._sym["class"] = cached
        return cached

    def cyclic_reduce(self):
        """(reduced, g) with word = g * reduced * g^-1, reduced cyclically reduced; cached."""
        cached = self._sym.get("cyclic")
        if cached is None:
            cached = self._sym["cyclic"] = cyclic_reduce(self.word, self.params.p, self.params.q)
        return cached


_US = (Syllable("U", 1), Syllable("S", 1))


def is_cusp_word(sylls, p, q) -> bool:
    """True when the syllables spell (U S)^k or (S^(p-1) U^(q-1))^k, k >= 0.

    These are the normal forms of (-T)^k and (-T)^-k, since T = -U S.  As
    Stab(inf) = +-<T>, a normal-form word has c = 0 exactly when its syllables
    are a cusp word, and then sign * (syllables) = sign * (-1)^k T^(+-k) has
    Asai sign sign * (-1)^k.
    """
    k, odd = divmod(len(sylls), 2)
    if odd:
        return False
    head = sylls[:2]
    return not k or (head in (_US, (Syllable("S", p - 1), Syllable("U", q - 1))) and sylls == head * k)


def asai_signs(params: GroupParams, word: GroupWord):
    """Yield the Asai sign of each suffix si...sn of `word`, shortest first.

    The suffixes carry no central sign.  Each step multiplies one syllable onto
    the left of a float shadow and takes the sign from the first tier that
    decides it: (a) the shadow's margin, (b) the cusp-word test, (c) exact
    `asai_sign`.  The exact suffix is only built when tier (c) is first reached,
    and is then brought up to date with the syllables met since, so no syllable
    is multiplied exactly twice.
    """
    sylls = word.syllables
    fm, exact, pending = params.identity_f, params.identity_matrix, []
    for i in range(len(sylls) - 1, -1, -1):
        fm = _fmul(params.syllable_fmat(*sylls[i]), fm)
        pending.append(sylls[i])
        s = _decided_sign(fm[0][2], fm[1][2])
        if s is None:
            if is_cusp_word(sylls[i:], params.p, params.q):
                s = (-1) ** ((len(sylls) - i) // 2)
            else:
                for syl in pending:
                    exact = params.syllable_matrix(*syl) * exact
                pending.clear()
                s = asai_sign(exact)
        yield s


def asai_sign(m: Matrix2) -> int:
    """Asai's sgn: sign of c when c != 0, else sign of a."""
    s = sign(m.c).value
    if s:
        return s
    return sign(m.a).value


def w_from_signs(s1, s2, s12) -> int:
    if (s1, s2, s12) == (1, 1, -1):
        return 1
    if (s1, s2, s12) == (-1, -1, 1):
        return -1
    return 0


def cocycle_W_el(x: Element, y: Element, xy: Element = None) -> int:
    if xy is None:
        xy = x * y
    return w_from_signs(x.asai(), y.asai(), xy.asai())


class LiftedElement(NamedTuple):
    el: Element
    level: int


def lift_multiply(x: LiftedElement, y: LiftedElement) -> LiftedElement:
    if x.el.params is not y.el.params:
        raise DomainError("mixed ambient (p,q) parameters")
    prod = x.el * y.el
    return LiftedElement(prod, x.level + y.level + cocycle_W_el(x.el, y.el, prod))


def lift_inverse(x: LiftedElement) -> LiftedElement:
    inv = x.el.inverse()
    return LiftedElement(inv, -x.level - cocycle_W_el(x.el, inv, Element.identity(x.el.params)))


# ---------------------------------------------------------------------------
# primitivity and roots


def is_primitive(el: Element) -> bool:
    cls = el.classify()
    if cls in ("elliptic", "central"):
        raise DomainError(f"is_primitive requires a non-elliptic, non-central element (got {cls})")
    w, _ = el.cyclic_reduce()
    return minimal_period(w.syllables) == len(w.syllables)


def primitive_root(el: Element):
    """Primitive non-elliptic root: el = (+/-) root^nu with root normalized.

    Hyperbolic roots are normalized to tr > 2, c > 0; parabolic roots to the
    conjugates of T (rather than T^-1).
    """
    params = el.params
    cls = el.classify()
    if cls in ("elliptic", "central"):
        raise DomainError(f"primitive_root requires a non-elliptic, non-central element (got {cls})")
    w, conj = el.cyclic_reduce()
    m = minimal_period(w.syllables)
    n = len(w.syllables) // m
    g = Element(params, conj)
    u = GroupWord(1, w.syllables[:m])
    rho = g * Element(params, u, _normalized=True) * g.inverse()
    rho._sym["cyclic"] = (u, conj)  # a period of a cyclically reduced word is cyclically reduced
    if rho.trace_sign() < 0:
        rho = -rho
    if cls == "hyperbolic":
        if rho.asai() < 0:
            rho = rho.inverse()
    elif rho.asai() > 0 and rho.word.syllables != _US:
        # h T h^-1 has c = -lambda h_c^2, so Asai sign -1 unless it is T itself
        # (c = 0, a = 1, syllables U S); the conjugates of T^-1 all have sign +1
        rho = rho.inverse()
    # the normal form is unique, so comparing syllables is an exact check up to +-I
    for nu in (n, -n):
        if (rho**nu).word.syllables == el.word.syllables:
            return rho, nu
    raise InternalInconsistencyError("primitive root does not generate the element")


# ---------------------------------------------------------------------------
# matrix recognition


def _side(m: Matrix2) -> int:
    """Sign of Re m(i), which is the sign of ac + bd."""
    return sign(m.a * m.c + m.b * m.d).value


def matrix_to_word(m: Matrix2, params: GroupParams) -> GroupWord:
    """Recognize an exact matrix as a group word by ping-pong on the point m(i).

    Gamma_{p,q} is the amalgam <S> *_{+-I} <U>.  U^e (e = 1..q-1) maps Re z <= 0
    into pairwise disjoint sectors of Re z > 0, and S^e (e = 1..p-1) maps
    Re z >= 0 into disjoint sectors of Re z < 0; at p = 2, S fixes i.  So for a
    normal-form word m = +-s1...sn the point m(i) lies in the sector of s1, the
    one exception being m = +-S at p = 2.  While Re m(i) is nonzero, s1 is the
    one syllable g of that side's generator for which g^-1 m(i) leaves the
    side's half-plane; it is peeled exactly (g^-1 = -g^(n-e), n the generator's
    order).  Each peel moves m(i) one tile closer to the imaginary axis in the
    tiling by the Gamma-images of that axis, so the loop ends on every real
    matrix, member or not, with no cap.  What is left must be +-I, or +-S at
    p = 2; anything else is not in the group.  The returned word is verified
    exactly against m.
    """
    field = params.field
    for x in m.entries():
        if x.field is not field:
            raise DomainError("matrix entries not in the ambient ring")
    if m.det() != field.one:
        raise NotInGroupError("determinant is not 1")
    sylls, sgn, cur, side = [], 1, m, _side(m)
    while side:
        gen, n = ("U", params.q) if side > 0 else ("S", params.p)
        for e in range(1, n):
            rest = params.syllable_matrix(gen, n - e) * cur
            new_side = _side(rest)
            if new_side != side:
                break
        else:
            break
        sylls.append(Syllable(gen, e))
        sgn, cur, side = -sgn, rest, new_side
    if params.p == 2 and cur in (params.S, -params.S):
        sylls.append(Syllable("S", 1))
        sgn, cur = -sgn, params.S * cur
    if cur not in (params.identity_matrix, -params.identity_matrix):
        raise NotInGroupError("not a group element: ping-pong reduction left a non-central residual")
    w = GroupWord(sgn if cur == params.identity_matrix else -sgn, tuple(sylls))
    if word_to_matrix(w, params) != m:
        raise InternalInconsistencyError("recognized word does not reproduce the matrix")
    return w
