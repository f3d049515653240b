"""Floating-point verification layer and class enumeration.

The (2,3) verification uses the explicit q-expansions
    log Delta(z) = 2 pi i z - 24 sum_n sigma_{-1}(n) q^n
    E2(z) = 1 - 24 sum_n sigma_1(n) q^n,   E2*(z) = E2(z) - 3/(pi Im z)
to check the cycle-integral and winding-number formulas against the exact psi,
along one period of the closed geodesic, centred on the top of its axis.
Every node is first moved into the fundamental domain by `_reduce_23`, and E2
and log Delta come from their values there through their modular laws, so the
series' argument has Im >= sqrt(3)/2 whatever the geodesic, and 7 terms of
each q-series leave a tail below an ulp of E2 there (`_e2_reduced`), whatever
the tolerance and the least Im z on the geodesic.  Both checks sample the
period on one ladder (`_ladder_23`) of n = 16, 32, 64, 128, ... intervals,
nodes t = L (k/n - 1/2), L = log xi, each level evaluating only its new
nodes.  The nodes of n = 64, with each node's reduction and q, are kept with
the element: the levels 16, 32 and 64 read them, and the two checks share
their 65 `_reduce_23` calls and exps.  The work is done one node at a time in
`math` and `cmath`: a level is a list of per-node tuples and each series a
Horner loop of 7 terms, too small for an array library to pay for its import.
Class tables come from prenecklace walks over the words, by syllables for any
(p,q) and by trace at (2,3) only; the arctan statistics work for any (p,q).
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple, Tuple

from trirad.errors import DomainError, NumericError, PreconditionError
from trirad.group import Element, GroupParams, is_primitive
from trirad.symbols import rademacher_Psi
from trirad.words import GroupWord, Syllable, render_word


# ---------------------------------------------------------------------------
# geodesic data

# (a, b, c, d) of S, U and U^2 at (2,3), where `GroupParams.syllable_matrix` has integer entries
_SYLLABLES_23 = {("S", 1): (0, -1, 1, 0), ("U", 1): (1, -1, 1, 0), ("U", 2): (0, -1, 1, -1)}


class GeodesicData(NamedTuple):
    w: float
    w_prime: float
    xi: float
    M: Tuple[Tuple[float, float], Tuple[float, float]]
    length: float


def _check_23(el: Element, who: str, primitive: bool = False):
    """The preconditions of the (2,3) quadrature and winding, checked by each public call."""
    if (el.params.p, el.params.q) != (2, 3):
        raise DomainError(f"{who} is implemented for (p,q) = (2,3) only")
    _check_hyperbolic_rep(el, who)
    if primitive and not is_primitive(el):
        raise PreconditionError(f"{who} requires a primitive element")


def _check_hyperbolic_rep(el: Element, who: str):
    if el.classify() != "hyperbolic" or el.trace_sign() <= 0:
        raise PreconditionError(f"{who} requires a hyperbolic element with tr > 2")
    if el.asai() <= 0:
        raise PreconditionError(f"{who} requires c > 0")


def geodesic_data(el: Element) -> GeodesicData:
    """Fixed points, scaling matrix and geodesic length of a (2,3) element with tr > 2, c > 0.

    The entries are the word's integers (`_SYLLABLES_23`), each rounded once:
    el.matrix.float_entries() bit for bit, with no exact matrix built.
    """
    _check_23(el, "geodesic_data")
    return _geodesic_data(el)


def _geodesic_data(el: Element) -> GeodesicData:
    a, b, c, d = el.word.sign, 0, 0, el.word.sign  # sign * I times the syllables, in integers
    for e, f, g, h in (_SYLLABLES_23[syl] for syl in el.word.syllables):
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    a, b, c, d = float(a), float(b), float(c), float(d)
    t = a + d
    disc = math.sqrt(t * t - 4.0)
    w = ((a - d) + disc) / (2.0 * c)
    w_prime = ((a - d) - disc) / (2.0 * c)
    xi = c * w + d
    s = math.sqrt(w - w_prime)
    M = ((w / s, w_prime / s), (1.0 / s, 1.0 / s))
    return GeodesicData(w=w, w_prime=w_prime, xi=xi, M=M, length=2.0 * math.log(xi))


# ---------------------------------------------------------------------------
# (2,3) q-expansions


@lru_cache(maxsize=8)
def _sigma_tables(N: int):
    """sigma_1(n) and sigma_{-1}(n) = sigma_1(n)/n for n = N, N - 1, ..., 1: highest first, for Horner's rule."""
    s1 = [0] * (N + 1)
    for d in range(1, N + 1):
        for m in range(d, N + 1, d):
            s1[m] += d
    return tuple(float(s1[n]) for n in range(N, 0, -1)), tuple(s1[n] / n for n in range(N, 0, -1))


def _q_series(z: complex, N: int, k: int) -> complex:
    """sum_{n=1}^N sigma_k(n) q^n, q = e^(2 pi i z), k = 1 or -1, for one complex z, by Horner's rule."""
    if N < 1:
        raise DomainError("truncation N must be >= 1")
    if not (cmath.isfinite(z) and z.imag > 0):
        raise DomainError("q-expansions require a finite z with Im z > 0")
    # q is 1-periodic in z: Re z - round(Re z) is exact, and 2 pi z stays finite however large Re z is
    q = cmath.exp(2j * math.pi * (z - round(z.real)))
    total = 0j
    for s in _sigma_tables(N)[k < 0]:
        total = total * q + s
    return total * q


def log_delta_23(z: complex, N: int = 200) -> complex:
    """Truncated log Delta; the tail is O(e^(-2 pi N Im z))."""
    return 2j * math.pi * z - 24.0 * _q_series(z, N, -1)


def eisenstein_E2(z: complex, N: int = 200) -> complex:
    return 1.0 - 24.0 * _q_series(z, N, 1)


# `_reduce_23` inverts a node when |z| < 1 - 2^-51, so the rounding of the
# inversion cannot undo it; it gives up after _MAX_PASSES passes, or when an
# entry of gamma, held in a float, could pass 2^53
_INVERT_BELOW = 1.0 - 2.0**-51
_MAX_PASSES = 128
_MAX_ENTRY = 2.0**53


def _reduce_23(z: complex):
    """(gz, c, d): gz = gamma z in the fundamental domain of SL2(Z), gamma = (a b; c d), for one node z.

    Each pass translates the node by its nearest integer (ties to even) and
    inverts it (z -> -1/z) when |z| < 1; the loop ends at the first pass that
    does not invert, when the node is in the domain.  z is a finite complex
    with Im z > 0; c and d come back as floats of the integers, coprime.
    gamma's rows are carried as a + ib and c + id.

    Where the loop stops: the translation z - n with |z - n| <= 1/2 is exact
    (Sterbenz), so |Re gz| <= 1/2 exactly, and |gz| >= 1 - 2^-51 up to the
    last bit of abs; hence Im gz >= sqrt(3)/2 - 2^-50 however the rounding
    moved the node, and `_e2_reduced` may count on Im gz >= sqrt(3)/2.
    Cost: after a translation |Re z| <= 1/2, so while Im z <= 1/2 an inversion
    at least doubles Im z, and a node needs at most about log2(1/Im z) + 3
    passes (about one per decade of Im z on random nodes).  NumericError after
    _MAX_PASSES passes, or when an entry of gamma reaches 2^53, where floats
    no longer hold it exactly (|c| is about Im z^(-1/2), so near Im z = 1e-30).

    Error, with eps = 2^-53 and k the number of passes: translations are
    exact, and an inversion returns -1/z to a few ulps, which is the exact
    image of a point within about 2 eps |z| <= 2 eps of z.  Pulled back to
    the input, such a displacement shrinks by the factor Im z / Im z_j <= 1 (z_j
    the node at that pass, gamma_j' = Im z_j / Im z), so the computed gz is
    gamma(z~) for a z~ within 2 k eps of z, and |gz - gamma(z)| <= 2 k eps
    Im gz / Im z to first order.  The modular laws divide by (cz + d)^2, whose
    size is Im z / Im gz, so E2 and log Delta at z come out to a relative
    eps |z| / Im z or so; that is the conditioning of E2 at a float node near
    the real axis (an ulp of Re z is eps |z| / Im z in hyperbolic distance),
    not a loss of the reduction.
    """
    if not (cmath.isfinite(z) and z.imag > 0):
        raise DomainError("the reduction requires a finite z with Im z > 0")
    top, bot = 1 + 0j, 1j
    for _ in range(_MAX_PASSES):
        n = round(z.real)
        z -= n
        top -= n * bot
        if abs(top) >= _MAX_ENTRY:
            raise NumericError("node too close to the real axis for the float reduction")
        if abs(z) >= _INVERT_BELOW:
            return z, bot.real, bot.imag
        z = -1.0 / z
        top, bot = -bot, top
    raise NumericError(f"reduction did not end within {_MAX_PASSES} passes")


# The two per-node series below run Horner's rule inline on the node's q =
# e^(2 pi i gz), over a table of `_sigma_tables(N)` that the caller looks up
# once: `_reduce_23` has checked the node, and Im gz >= sqrt(3)/2.  The
# quadrature and the winding take N = _TERMS.
_TERMS = 7


def _e2_reduced(z: complex, sigma_1, reduced):
    """E2(z) = [E2(gz) + (6i/pi) c j] / j^2, j = cz + d: the weight-2 law at one node.

    sigma_1 = `_sigma_tables(N)[0]`, and reduced = (gz, c, d, q): (gz, c, d) =
    `_reduce_23(z)` and q = e^(2 pi i gz).

    Why N = _TERMS = 7 is enough: Im gz >= sqrt(3)/2 - 2^-50 (`_reduce_23`),
    so |q| <= r = e^(-pi sqrt(3)) (1 + 6e-15) = 0.0043334, and with
    sigma_1(n) <= n (1 + ln n) the tail is 24 sum_{n>7} sigma_1(n) r^n <=
    7.4e-17 (the exact sigmas give 4.5e-17).  |E2(gz)| >= 1 - 24 sum_n
    sigma_1(n) r^n > 0.89, so the tail is below an ulp of E2(gz), 2^-53 or
    more.  sigma_{-1} <= sigma_1, so the same bound holds for log Delta's
    series (`_arg_delta_reduced`).
    """
    gz, c, d, q = reduced
    total = 0j
    for s in sigma_1:
        total = total * q + s
    j = c * z + d
    return (1.0 - 24.0 * (total * q) + (6j / math.pi) * c * j) / (j * j)


def _arg_delta_reduced(z: complex, sigma_m1, reduced):
    """Im log Delta(z) mod 2 pi, as Im log Delta(gz) - 12 arg(cz + d) (Delta(gz) = (cz + d)^12 Delta(z)).

    sigma_m1 = `_sigma_tables(N)[1]`, and reduced is as in `_e2_reduced`.
    """
    gz, c, d, q = reduced
    total = 0j
    for s in sigma_m1:
        total = total * q + s
    return 2.0 * math.pi * gz.real - 24.0 * (total * q).imag - 12.0 * cmath.phase(c * z + d)


def _level_23(gd: GeodesicData, ss):
    """The nodes (z, iy, (gz, c, d, q)) at t = L (s - 1/2), L = log xi, for the s in ss (0 <= s <= 1), as a list.

    gd = `_geodesic_data(el)`, iy = i e^(2t), (gz, c, d) = `_reduce_23(z)` and
    q = e^(2 pi i gz), the one exp that E2 and log Delta at the node share
    (`_e2_reduced`, `_arg_delta_reduced`).  z = z(t) = (w i e^(2t) + w')/(i
    e^(2t) + 1) runs along the axis of el from z_0 = z(-L/2) to el(z_0) =
    z(L/2).  The period is centred on the top M i = z(0), so its least Im z, at
    both ends, is (w - w') xi / (1 + xi^2), about (w - w')/xi.  That matters
    because the nodes are floats: a node's real part is only good to an ulp of
    |z|, which is eps |z| / Im z in hyperbolic distance, so the integrands
    carry a relative error of about eps |w| xi / (w - w') at the ends
    (`_reduce_23`).  gd's element must have passed `_check_23`.
    """
    L, w, w_prime = math.log(gd.xi), gd.w, gd.w_prime
    exp, cexp, two_pi_i = math.exp, cmath.exp, 2j * math.pi
    nodes = []
    for s in ss:
        iy = complex(0.0, exp(2.0 * (L * (s - 0.5))))
        z = (w * iy + w_prime) / (iy + 1.0)
        gz, c, d = _reduce_23(z)
        nodes.append((z, iy, (gz, c, d, cexp(two_pi_i * gz))))
    return nodes


def _ladder_23(el: Element, g):
    """Yield the values on n = 16, 32, 64, ... intervals (module docstring), a list of one per node, without end.

    g(gd, nodes) returns one value per node, gd = `_geodesic_data(el)`, and
    the nodes are `_level_23`'s.  The 65 nodes of n = 64 are reduced once and
    kept with el as a list; n = 16 reads every 4th of them, n = 32 adds the
    rest of the even ones and n = 64 the odd ones.  Each finer level adds its
    new midpoints.  So g sees each node once, and a caller that stops at n
    has paid for n + 1 nodes of g.
    """
    first = el._sym.get("level_23")
    if first is None:
        gd = _geodesic_data(el)
        first = el._sym["level_23"] = gd, _level_23(gd, [k / 64 for k in range(65)])
    gd, nodes = first
    values = [None] * 65
    values[::4] = g(gd, nodes[::4])
    yield values[::4]
    values[2::4] = g(gd, nodes[2::4])
    yield values[::2]
    values[1::2] = g(gd, nodes[1::2])
    while True:
        yield values
        n = len(values) - 1
        finer = [None] * (2 * n + 1)
        finer[::2] = values
        finer[1::2] = g(gd, _level_23(gd, [(k + 0.5) / n for k in range(n)]))
        values = finer


class CycleIntegralResult(NamedTuple):
    value: float
    psi: int
    residual: float


def cycle_integral_23(el: Element, tol: float = 1e-6) -> CycleIntegralResult:
    """Quadrature of E2* along the closed geodesic; should return psi (r=1).

    f(t) = E2*(z(t)) z'(t) on the centred period [-L/2, L/2], L = log xi, takes
    E2 from each node's image in the fundamental domain (`_e2_reduced`, 7
    terms whatever tol).  f is L-periodic (el z(t) = z(t + L), and E2*(z) dz
    is invariant) and analytic for |Im t| < pi/4, where z(t) stays in H, so the
    trapezoid sum T_n on n intervals errs by O(e^(-pi^2 n / (2L))) (Trefethen
    and Weideman, SIAM Rev. 56, 2014).  T_n is returned at the first level of
    the ladder, from n = 16, with |T_n - T_(n/2)| <= tol/20: on the short
    classes that is 16 or 32 intervals, 17 or 33 evaluations of E2.  The
    real part of the accepted T_n is then summed again with one rounding
    (`math.fsum`), so the value carries the nodes' float error, not the sum's.
    NumericError past 2048 intervals, DomainError unless tol is finite and > 0.

    Length domain, at the default tol: every primitive class of at most 80
    syllables.  n grows only with the period; what grows with the class is the
    float error at the ends of the period, about eps xi |w| / (w - w')
    (`_level_23`).  An 80-syllable class is a word of 40 letters L, R
    with |trace| at most the Lucas number L_40 = 2.3e8, and (L R)^20 L (82
    syllables, trace 3.3e8) still gives a residual of 4e-8.  Past xi of about
    1e10 the sums stop agreeing to tol/20 and NumericError is raised: 6 of 8
    random classes of 120 syllables, all of 160.

    psi is read off the word, with no exact arithmetic: the defining relation
    2 Psi = 2 psi + pq asai (1 - trace sign) gives psi = Psi at tr > 2, and
    `symbols.rademacher_Psi` reads Psi off the cyclically reduced word.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError("tol must be finite and > 0")
    _check_23(el, "cycle_integral_23", primitive=True)
    sigma_1 = _sigma_tables(_TERMS)[0]

    def f(gd, nodes):  # L f(t) at each node, so that T_n is the mean of the values, ends halved
        span, L, pi = gd.w - gd.w_prime, math.log(gd.xi), math.pi
        return [
            (_e2_reduced(z, sigma_1, reduced) - 3.0 / (pi * z.imag)) * (2.0 * iy * span / (iy + 1.0) ** 2) * L
            for z, iy, reduced in nodes
        ]

    for fs in _ladder_23(el, f):
        # the trapezoid sums T_n on this level and T_(n/2) on every other node
        total, coarse = ((sum(v) - 0.5 * (v[0] + v[-1])) / (len(v) - 1) for v in (fs, fs[::2]))
        if abs(total - coarse) <= tol / 20:
            break
        if len(fs) > 2048:
            raise NumericError("quadrature did not converge within the requested tolerance")
    if abs(total.imag) > 100 * tol:
        raise NumericError("cycle integral has a non-negligible imaginary part")
    value = (math.fsum([v.real for v in fs]) - 0.5 * (fs[0].real + fs[-1].real)) / (len(fs) - 1)
    psi_ = rademacher_Psi(el)
    return CycleIntegralResult(value=value, psi=psi_, residual=abs(value - psi_))


def winding_number_23(el: Element) -> int:
    """Winding index of j(g,i)^(-12) Delta(g i) along the geodesic-flow loop (`winding_residual_23`)."""
    _check_23(el, "winding_number_23", primitive=True)
    return winding_residual_23(el)[0]


def winding_residual_23(el: Element):
    """(winding, distance of the summed turns from it) of j(g,i)^(-12) Delta(g i) over one period.

    The phase of Delta at each node comes from its image in the fundamental
    domain (`_arg_delta_reduced`) and is right only modulo 2 pi; the wrapped
    steps between neighbours absorb that, summed at the first level of the
    ladder (`_ladder_23`) from n = 64 intervals where all are below pi/2: the
    levels 16 and 32 only evaluate their share of the 65 nodes.  NumericError
    when no level up to 2^18 intervals has every step below pi/2.
    """
    _check_23(el, "winding_residual_23")
    sigma_m1 = _sigma_tables(_TERMS)[1]

    def phases(gd, nodes):
        # j(g_t, i) = (e^t i + e^-t)/sqrt(span), of phase arctan(e^(2t)); constant |.| factors do not move it
        atan = math.atan
        return [_arg_delta_reduced(z, sigma_m1, reduced) - 12.0 * atan(iy.imag) for z, iy, reduced in nodes]

    pi, two_pi = math.pi, 2 * math.pi
    for ph in _ladder_23(el, phases):
        if len(ph) < 65:
            continue
        wrapped = [(b - a + pi) % two_pi - pi for a, b in zip(ph, ph[1:])]
        if max(map(abs, wrapped)) < pi * 0.5:
            turns = sum(wrapped) / two_pi
            return round(turns), abs(turns - round(turns))
        if len(ph) > 1 << 18:
            raise NumericError("undersampled winding path: a phase step >= pi/2 at 2^18 intervals")


# ---------------------------------------------------------------------------
# class enumeration and distribution statistics


class ClassEntry(NamedTuple):
    """One row of a class table; a tuple, since a table holds one per class."""

    word: GroupWord
    trace: float
    psi: int
    Psi: int
    length: float


class ClassTable(NamedTuple):
    p: int
    q: int
    entries: Tuple[ClassEntry, ...]

    def to_rows(self):
        keys = ("word", "trace_numeric", "psi", "Psi", "length")
        return [dict(zip(keys, (render_word(e.word), e.trace, e.psi, e.Psi, e.length))) for e in self.entries]


def _class_entry(word: GroupWord, trace: float, Psi: int, pq: int) -> ClassEntry:
    """Row of the hyperbolic class sigma = 1, S^a1 U^b1 ... S^ak U^bk; psi from `syllable_Psi`'s sign facts."""
    at = abs(trace)
    xi = (at + math.sqrt(at * at - 4.0)) / 2.0
    psi_ = Psi - pq if (len(word.syllables) // 2) & 1 else Psi
    return ClassEntry(word, trace, psi_, Psi, 2.0 * math.log(xi))


def enumerate_classes(params: GroupParams, max_syllables: int) -> ClassTable:
    """Primitive hyperbolic classes with cyclic words up to the syllable bound.

    A class of S^a U^b pairs is a primitive necklace over the (p-1)(q-1) letters
    (a, b), ordered by a then b; its Lyndon word is a node of period = length in
    the prenecklace walk of `enumerate_classes_by_trace`, here down to
    max_syllables // 2 letters.  Rows are listed by length, then
    lexicographically.  Hyperbolicity is a word fact: a cyclically reduced word
    is parabolic only when a rotation is a cusp word (`Element.classify`), here
    a power of the letter S U or S^(p-1) U^(q-1), and a Lyndon word of two or
    more letters is no power of one letter, so only those two words are dropped.
    Psi, pq - qa - pb per letter (`syllable_Psi`), is summed down the walk; the
    trace is the float shadow's (`Element.float_trace`), folded once per row.
    """
    if max_syllables < 2:
        raise DomainError("max_syllables must be >= 2")
    p, q = params.p, params.q
    letters = [(Syllable("S", a), Syllable("U", b)) for a in range(1, p) for b in range(1, q)]
    steps = [p * q - q * s.exp - p * u.exp for s, u in letters]
    last, depth, entries = len(letters) - 1, max_syllables // 2, []
    stack = [(letters[i], (i,), 1, steps[i]) for i in range(last, -1, -1)]
    while stack:
        sylls, word, per, Psi = stack.pop()
        n = len(word)
        if per == n and (n > 1 or 0 < word[0] < last):
            w = GroupWord(1, sylls)
            entries.append(_class_entry(w, Element(params, w, _normalized=True).float_trace(), Psi, p * q))
        if n < depth:
            head = word[n - per]
            stack += [(sylls + letters[i], word + (i,), n + 1, Psi + steps[i]) for i in range(last, head, -1)]
            stack.append((sylls + letters[head], word + (head,), per, Psi + steps[head]))
    entries.sort(key=lambda e: len(e.word.syllables))
    return ClassTable(p=p, q=q, entries=tuple(entries))


def enumerate_classes_by_trace(params: GroupParams, max_trace: int, max_workers=None) -> ClassTable:
    """All primitive hyperbolic (2,3) classes with |trace| <= max_trace.

    This is the length-ordered population of the arctan distribution law
    (l <= y is the same as trace <= 2 cosh(y/2)).  Classes are enumerated via
    the continued-fraction coding: mod center, S U = -L^-1 and S U^2 = -R^-1
    with L = (1 0; 1 1) and R = (1 1; 0 1), so a class is a cyclic word over
    {1 = L, 2 = R}, and its representative is the Lyndon word, the least
    rotation.  The table lists them in lexicographic order.

    The Lyndon words are the nodes with period = length in the prenecklace
    tree (Fredricksen-Kessler-Maiorana; Ruskey, *Combinatorial Generation*,
    7.2; Cattell et al., J. Algorithms 2000), walked from (1,) in preorder,
    smaller letter first, which is lexicographic order.  A node w of period
    per has the children w + w[len(w) - per], of period per, and w + a for
    every larger letter a, of period len(w) + 1.

    Pruning: the walk descends below w only while tr(w R) = a + c + d <= X,
    for w = (a b; c d).  L and R are nonnegative and >= I entrywise, so every
    product u of them is too.  A Lyndon word of length >= 2 ends in R (a word
    of length >= 2 ending in L has the smaller suffix L), so a proper Lyndon
    extension of w is w u R, and tr(w u R) = tr(w R) + tr(w (u - I) R) >=
    tr(w R).  The bound also stops the L^k branch, whose trace stays 2, so no
    length cap is needed.

    Rows come from the walk, with no field matrix or float shadow: the node
    w = X_1...X_n = (a b; c d) codes S U^e1 ... S U^en = (-1)^n (X_n...X_1)^-1,
    and tr(X_n...X_1) = tr(X_1^T...X_n^T) = tr(w) as X^T = J X J, J = (0 1; 1 0),
    so the trace is (-1)^n (a + d), exact in floats (integers <= X).  Psi = #L -
    #R (`syllable_Psi`) is carried along and psi follows from its sign facts.
    max_workers is accepted and ignored.
    """
    if (params.p, params.q) != (2, 3):
        raise DomainError("trace-bounded enumeration is implemented for (p,q) = (2,3) only")
    if max_trace < 3:
        raise DomainError("max_trace must be >= 3")
    X = max_trace
    L, R = (Syllable("S", 1), Syllable("U", 1)), (Syllable("S", 1), Syllable("U", 2))
    entries = []
    # node: (syllables, period in letters, Psi, matrix of the word); children are pushed larger letter first
    stack = [(L, 1, 1, (1, 0, 1, 1))]
    while stack:
        sylls, per, Psi, (a, b, c, d) = stack.pop()
        n = len(sylls) // 2
        if per == n and 2 < a + d <= X:
            entries.append(_class_entry(GroupWord(1, sylls), float(-(a + d) if n & 1 else a + d), Psi, 6))
        if a + c + d > X:
            continue
        if sylls[2 * (n - per) + 1] == L[1]:
            stack.append((sylls + R, n + 1, Psi - 1, (a, a + b, c, c + d)))
            stack.append((sylls + L, per, Psi + 1, (a + b, b, c + d, d)))
        else:
            stack.append((sylls + R, per, Psi - 1, (a, a + b, c, c + d)))
    return ClassTable(p=2, q=3, entries=tuple(entries))


class DistributionStats(NamedTuple):
    count: int
    fraction: float
    reference: float
    ks_distance: float


def distribution_stats(table: ClassTable, a: float, b: float) -> DistributionStats:
    """Empirical fraction of classes with a <= Psi/l <= b vs the arctan law, and the KS distance, in one pass."""
    if not table.entries:
        raise DomainError("empty class table")
    if math.isnan(a) or math.isnan(b):
        raise DomainError("the bounds a and b must not be NaN")
    pq = table.p * table.q
    ratios = sorted([e.Psi / e.length for e in table.entries])
    n = len(ratios)
    atan, pi = math.atan, math.pi
    reference = (atan(2 * pi * b / pq) - atan(2 * pi * a / pq)) / pi
    inside, ks = 0, 0.0
    for i, x in enumerate(ratios):
        if a <= x <= b:
            inside += 1
        fx = 0.5 + atan(2 * pi * x / pq) / pi  # the law's CDF, against the empirical one each side of x
        lo, hi = abs(i / n - fx), abs((i + 1) / n - fx)
        if hi > ks:
            ks = hi
        if lo > ks:
            ks = lo
    return DistributionStats(count=n, fraction=inside / n, reference=reference, ks_distance=ks)
