"""Floating-point verification layer and class enumeration.

The (2,3) verification uses the explicit q-expansions
    log Delta(z) = 2 pi i z - 24 sum_n sigma_{-1}(n) q^n
    E2(z) = 1 - 24 sum_n sigma_1(n) q^n,   E2*(z) = E2(z) - 3/(pi Im z)
to check the cycle-integral and winding-number formulas against the exact psi,
along one period of the closed geodesic, centred on the top of its axis.
Every node is first moved into the fundamental domain by `_reduce_23`, and E2
and log Delta come from their values there through their modular laws, so the
series' argument has Im >= sqrt(3)/2 whatever the geodesic, and the q-series
is cut at the N terms where e^(-2 pi N sqrt(3)/2) <= tol/1000 (plus 10): 13
terms at tol 1e-6, 14 at 1e-8, not a count set by the least Im z on the
geodesic.  Both checks sample the period on one ladder (`_ladder_23`): the 65
nodes t = L (k/64 - 1/2), L = log xi, then n = 128, 256, ... intervals, each
level taking only its new midpoints.  The first level and its reduction are
kept with the element, so the two checks share its one `_reduce_23` call.
Syllable-bounded class enumeration and the arctan distribution statistics
work for any (p,q); trace-bounded enumeration is (2,3)-only.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Tuple

import numpy as np

from trirad.errors import DomainError, NumericError, PreconditionError
from trirad.group import Element, GroupParams, is_primitive
from trirad.symbols import rademacher_Psi, syllable_Psi
from trirad.words import GroupWord, Syllable, render_word


# ---------------------------------------------------------------------------
# geodesic data


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
    """Fixed points, scaling matrix and geodesic length of a tr>2, c>0 element.

    The float entries are el.matrix.float_entries(), bit for bit, read off the
    float shadow where it decides them.  At (2,3) the exact entries are
    integers n, and the shadow (x, e, k) bounds |2^-k n - x| <= e
    (`group._fmul`).  When k = 0, every e < 1/4 and every |x| < 2^52, x is
    within 1/2 of n only, so round(x) = n, and |n| <= 2^52 is a float exactly.
    The bound is 1/4 rather than 1/2 because it is itself evaluated in floats
    and may come out a few ulps low.  Every other pair, and a (2,3) shadow
    past those bounds, takes the exact matrix; on random classes the bounds
    pass 1/4 from about 126 syllables on, with entries near 4e11.
    """
    _check_hyperbolic_rep(el, "geodesic_data")
    return _geodesic_data(el)


def _geodesic_data(el: Element) -> GeodesicData:
    x, e, k = el.fmat
    if (el.params.p, el.params.q) == (2, 3) and k == 0 and max(e) < 0.25 and max(map(abs, x)) < 2.0**52:
        a, b, c, d = (float(round(v)) for v in x)
    else:
        a, b, c, d = el.matrix.float_entries()
    t = a + d
    disc = math.sqrt(t * t - 4.0)
    w = ((a - d) + disc) / (2.0 * c)
    w_prime = ((a - d) - disc) / (2.0 * c)
    xi = c * w + d
    s = math.sqrt(w - w_prime)
    M = ((w / s, w_prime / s), (1.0 / s, 1.0 / s))
    return GeodesicData(w=w, w_prime=w_prime, xi=xi, M=M, length=2.0 * math.log(xi))


def _geodesic_path_23(gd: GeodesicData, t):
    """(z(t), i e^(2t)) on the axis of el, gd = `_geodesic_data(el)`, for t in [-log xi / 2, log xi / 2].

    z(t) = (w i e^(2t) + w')/(i e^(2t) + 1) runs along the axis of el from
    z_0 = z(-log xi / 2) to el(z_0) = z(log xi / 2).  The period is centred on
    the top M i = z(0), so its least Im z, at both ends, is (w - w') xi /
    (1 + xi^2), about (w - w')/xi.  That matters because the nodes are floats:
    a node's real part is only good to an ulp of |z|, which is eps |z| / Im z
    in hyperbolic distance, so the integrands carry a relative error of about
    eps |w| xi / (w - w') at the ends (`_reduce_23`).  el must have passed
    `_check_23`.
    """
    iy = 1j * np.exp(2.0 * t)
    return (gd.w * iy + gd.w_prime) / (iy + 1.0), iy


# ---------------------------------------------------------------------------
# (2,3) q-expansions


@lru_cache(maxsize=8)
def _sigma_tables(N: int):
    """sigma_1(n) and sigma_{-1}(n) = sigma_1(n)/n for n <= N (0 at n = 0)."""
    s1 = np.zeros(N + 1)
    for d in range(1, N + 1):
        s1[d::d] += d
    n = np.arange(N + 1, dtype=float)
    n[0] = 1.0
    return s1, s1 / n


def _q_series(z, N: int, k: int):
    """sum_{n=1}^N sigma_k(n) q^n, q = e^(2 pi i z), k = 1 or -1; z a complex or an array."""
    if N < 1:
        raise DomainError("truncation N must be >= 1")
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z) & (z.imag > 0)):
        raise DomainError("q-expansions require a finite z with Im z > 0")
    total = np.vander(np.exp(2j * np.pi * z.ravel()), N + 1, increasing=True) @ _sigma_tables(N)[k < 0]
    return total.reshape(z.shape) if z.ndim else complex(total[0])


def log_delta_23(z: complex, N: int = 200) -> complex:
    """Truncated log Delta; the tail is O(e^(-2 pi N Im z))."""
    series = _q_series(z, N, -1)  # first, so a non-finite z raises before numpy warns on 2 pi i z
    return 2j * np.pi * z - 24.0 * series


def eisenstein_E2(z: complex, N: int = 200) -> complex:
    return 1.0 - 24.0 * _q_series(z, N, 1)


def _truncation_for(tol: float) -> int:
    """Terms N with e^(-2 pi N Im z) <= tol/1000 on the fundamental domain (Im z >= sqrt(3)/2), plus 10."""
    return max(int((math.log(1e3) - math.log(tol)) / (math.pi * math.sqrt(3.0))), 0) + 10


# `_reduce_23` inverts a node when |z| < 1 - 2^-51, so the rounding of the
# inversion cannot undo it; it gives up after _MAX_PASSES passes, or when an
# entry of gamma, held in a float, could pass 2^53
_INVERT_BELOW = 1.0 - 2.0**-51
_MAX_PASSES = 128
_MAX_ENTRY = 2.0**53


def _reduce_23(z):
    """(gz, c, d): gz = gamma z in the fundamental domain of SL2(Z), gamma = (a b; c d).

    Each pass translates every node by its nearest integer and inverts the
    nodes with |z| < 1 (z -> -1/z); the loop ends at the first pass that
    inverts no node, when every node is in the domain.  z is a finite complex or an array of them with Im z > 0; c and d come
    back as float arrays of the integers, coprime, in z's shape.  gamma's rows
    are carried as a + ib and c + id.

    Where the loop stops: the translation z - n with |z - n| <= 1/2 is exact
    (Sterbenz), so |Re gz| <= 1/2 exactly, and |gz| >= 1 - 2^-51 up to the
    last bit of np.abs; hence Im gz >= sqrt(3)/2 - 2^-50 however the rounding
    moved the node, and `_truncation_for` may count on Im gz >= sqrt(3)/2.
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
    z = np.array(z, dtype=complex)
    if not np.all(np.isfinite(z) & (z.imag > 0)):
        raise DomainError("the reduction requires a finite z with Im z > 0")
    top, bot = np.ones_like(z), np.full_like(z, 1j)
    for _ in range(_MAX_PASSES):
        n = np.rint(z.real)
        z -= n
        top -= n * bot
        if np.max(np.abs(top)) >= _MAX_ENTRY:
            raise NumericError("node too close to the real axis for the float reduction")
        inv = np.abs(z) < _INVERT_BELOW
        if not inv.any():
            return z, bot.real, bot.imag
        z = np.where(inv, -1.0 / z, z)
        top, bot = np.where(inv, -bot, top), np.where(inv, top, bot)
    raise NumericError(f"reduction did not end within {_MAX_PASSES} passes")


def _e2_reduced(z, N: int, reduced):
    """E2(z) = [E2(gz) + (6i/pi) c j] / j^2, j = cz + d: the weight-2 law, with (gz, c, d) = reduced = `_reduce_23(z)`."""
    gz, c, d = reduced
    j = c * z + d
    return (eisenstein_E2(gz, N) + (6j / math.pi) * c * j) / (j * j)


def _arg_delta_reduced(z, N: int, reduced):
    """Im log Delta(z) mod 2 pi, as Im log Delta(gz) - 12 arg(cz + d) (Delta(gz) = (cz + d)^12 Delta(z)), reduced as in `_e2_reduced`."""
    gz, c, d = reduced
    return log_delta_23(gz, N).imag - 12.0 * np.angle(c * z + d)


class CycleIntegralResult(NamedTuple):
    value: float
    psi: int
    residual: float


def _ladder_23(el: Element, g):
    """Yield g(gd, z, iy, `_reduce_23(z)`) on each level of the ladder (module docstring), without end."""
    def level(gd, s):  # the nodes t = L (s - 1/2), L = log xi, 0 <= s <= 1
        z, iy = _geodesic_path_23(gd, math.log(gd.xi) * (s - 0.5))
        return gd, z, iy, _reduce_23(z)

    first = el._sym.get("level_23")
    if first is None:
        first = el._sym["level_23"] = level(_geodesic_data(el), np.arange(65) / 64)
    values = g(*first)
    while True:
        yield values
        n = len(values) - 1
        values = np.insert(values, np.arange(1, n + 1), g(*level(first[0], (np.arange(n) + 0.5) / n)))


def cycle_integral_23(el: Element, tol: float = 1e-6) -> CycleIntegralResult:
    """Quadrature of E2* along the closed geodesic; should return psi (r=1).

    f(t) = E2*(z(t)) z'(t) on the centred period [-L/2, L/2], L = log xi, takes
    E2 from each node's image in the fundamental domain (`_e2_reduced`, N =
    `_truncation_for(tol)` terms).  f is L-periodic (el z(t) = z(t + L), and
    E2*(z) dz is invariant) and analytic for |Im t| < pi/4, where z(t) stays in
    H, so the trapezoid sum T_n on n intervals errs by O(e^(-pi^2 n / (2L)))
    (Trefethen and Weideman, SIAM Rev. 56, 2014).  T_n is returned at the first
    level of the ladder with |T_n - T_(n/2)| <= tol/20; NumericError past 2048
    intervals, DomainError unless tol is finite and > 0.

    Length domain, at the default tol: every primitive class of at most 80
    syllables.  n grows only with the period; what grows with the class is the
    float error at the ends of the period, about eps xi |w| / (w - w')
    (`_geodesic_path_23`).  An 80-syllable class is a word of 40 letters L, R
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
    N = _truncation_for(tol)

    def f(gd, z, iy, reduced):  # L f(t), so that T_n is the mean of the values, ends halved
        dz = 2.0 * iy * (gd.w - gd.w_prime) / (iy + 1.0) ** 2
        return (_e2_reduced(z, N, reduced) - 3.0 / (math.pi * z.imag)) * dz * math.log(gd.xi)

    for fs in _ladder_23(el, f):
        # the trapezoid sums T_n on this level and T_(n/2) on every other node
        total, coarse = (complex(np.sum(v) - 0.5 * (v[0] + v[-1])) / (len(v) - 1) for v in (fs, fs[::2]))
        if abs(total - coarse) <= tol / 20:
            break
        if len(fs) > 2048:
            raise NumericError("quadrature did not converge within the requested tolerance")
    if abs(total.imag) > 100 * tol:
        raise NumericError("cycle integral has a non-negligible imaginary part")
    psi_ = rademacher_Psi(el)
    return CycleIntegralResult(value=total.real, psi=psi_, residual=abs(total.real - psi_))


def winding_number_23(el: Element) -> int:
    """Winding index of j(g,i)^(-12) Delta(g i) along the geodesic-flow loop (`winding_residual_23`)."""
    _check_23(el, "winding_number_23", primitive=True)
    return winding_residual_23(el)[0]


def winding_residual_23(el: Element):
    """(winding, distance of the summed turns from it) of j(g,i)^(-12) Delta(g i) over one period.

    The phase of Delta at each node comes from its image in the fundamental
    domain (`_arg_delta_reduced`) and is right only modulo 2 pi; the wrapped
    steps between neighbours absorb that, summed at the first level of the
    ladder (`_ladder_23`) where all are below pi/2.  NumericError when no
    level up to 2^18 intervals has every step below pi/2.
    """
    _check_23(el, "winding_residual_23")
    N = _truncation_for(1e-8)

    def phase(gd, z, iy, reduced):
        # j(g_t, i) = (e^t i + e^-t)/sqrt(span), of phase arctan(e^(2t)); constant |.| factors do not move it
        return _arg_delta_reduced(z, N, reduced) - 12.0 * np.arctan(iy.imag)

    for ph in _ladder_23(el, phase):
        wrapped = (np.diff(ph) + np.pi) % (2 * np.pi) - np.pi
        if np.max(np.abs(wrapped)) < np.pi * 0.5:
            turns = float(np.sum(wrapped)) / (2 * np.pi)
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


def _lyndon_words(k: int, n: int):
    """Lyndon words of length 1..n over 0..k-1 in lexicographic order, in constant amortized
    time each: Duval's algorithm (Duval 1988; Ruskey, *Combinatorial Generation*, 7.2)."""
    w = [-1]
    while w:
        w[-1] += 1
        yield tuple(w)
        m = len(w)
        while len(w) < n:
            w.append(w[-m])
        while w and w[-1] == k - 1:
            w.pop()


def _class_entry(word: GroupWord, trace: float, Psi: int, pq: int) -> ClassEntry:
    """Row of the hyperbolic class sigma = 1, S^a1 U^b1 ... S^ak U^bk; psi from `syllable_Psi`'s sign facts."""
    at = abs(trace)
    xi = (at + math.sqrt(at * at - 4.0)) / 2.0
    psi_ = Psi - pq if (len(word.syllables) // 2) & 1 else Psi
    return ClassEntry(word, trace, psi_, Psi, 2.0 * math.log(xi))


def enumerate_classes(params: GroupParams, max_syllables: int) -> ClassTable:
    """Primitive hyperbolic classes with cyclic words up to the syllable bound.

    A class of S^a U^b pairs is a primitive necklace over the (p-1)(q-1)
    letters (a, b), and its representative is the Lyndon word, the least
    rotation.  The table lists them by length, then lexicographically.  Rows:
    the float shadow's trace, psi and Psi from `syllable_Psi`, and length =
    2 log xi with xi + 1/xi = |trace|.
    """
    if max_syllables < 2:
        raise DomainError("max_syllables must be >= 2")
    p, q = params.p, params.q
    letters = [(Syllable("S", a), Syllable("U", b)) for a in range(1, p) for b in range(1, q)]
    lyndon = sorted(_lyndon_words(len(letters), max_syllables // 2), key=len)
    els = (Element(params, GroupWord(1, tuple(s for i in w for s in letters[i])), _normalized=True) for w in lyndon)
    hyp = [el for el in els if el.classify() == "hyperbolic"]
    entries = [_class_entry(el.word, el.float_trace(), syllable_Psi(el.word.syllables, p, q), p * q) for el in hyp]
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
