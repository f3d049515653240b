"""Exact arithmetic in Q(2cos(pi/p), 2cos(pi/q)) with certified signs.

Elements are stored on the monomial basis alpha^i beta^j where alpha = 2cos(pi/p)
and beta = 2cos(pi/q).  Since gcd(p,q) = 1 the two real cyclotomic fields
intersect in Q, so the basis is honest and canonical coefficient matrices decide
equality.  Set-up takes one step per generator x, `_times_x`: shift a vector on
the basis 1, x, .., x^(d-1) up a degree and reduce its top coefficient by the
minimal polynomial.  It builds the power rows that `AlgebraicNumber.__mul__`
reduces with, alpha and beta, and the Chebyshev rows from which
`trirad.group` writes the syllable matrices, with no ring multiply.
`AlgebraicNumber.float_with_error` is the one float evaluation: the
float sum of the n nonzero terms and a derived bound (n + 3(dp + dq) + 4) 2^-53
sum |term| (plus a subnormal term) on its error; `float`, the float tier of
`sign` and the float shadows of `trirad.group` all take it.  Signs of nonzero
values the float leaves open are certified by integer interval arithmetic at
doubling precision N: the floors of alpha 2^N and beta 2^N, found by Newton's
method on the minimal polynomials, bracket every monomial; the zero value is
recognized symbolically.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Union

from trirad.errors import DomainError, InternalInconsistencyError

Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, lowest degree first)


@lru_cache(maxsize=None)
def _cyclotomic(m):
    """Coefficients of the m-th cyclotomic polynomial, the product of (y^d - 1)^mu(m/d) over d | m.

    The factors with mu = +1 are multiplied in first, then those with mu = -1
    divided out exactly; each factor is one pass over the coefficients.
    """
    mobius = {1: 1}  # mu(e) on the square-free divisors e of m; k is prime when none of them divides it
    for k in range(2, m + 1):
        if m % k == 0 and all(k % e for e in mobius if e > 1):
            mobius.update({e * k: -mu for e, mu in mobius.items()})
    poly = [1]
    for e, mu in sorted(mobius.items(), key=lambda item: -item[1]):
        d = m // e
        if mu > 0:
            poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
            continue
        out = []  # out (y^d - 1) = poly: out[i] = out[i - d] - poly[i], and the top d vanish
        for i, a in enumerate(poly):
            out.append((out[i - d] if i >= d else 0) - a)
        if any(out[len(out) - d:]):
            raise InternalInconsistencyError("non-exact polynomial division")
        poly = out[: len(out) - d]
    return tuple(poly)


class MinPoly(NamedTuple):
    """Monic minimal polynomial of 2cos(pi/n), coefficients lowest-first."""

    n: int
    coeffs: tuple

    @property
    def degree(self):
        return len(self.coeffs) - 1


@lru_cache(maxsize=None)
def minpoly_2cos_pi_over(n: int) -> MinPoly:
    """Minimal polynomial of 2cos(pi/n) via the 2n-th cyclotomic polynomial.

    Phi_2n is palindromic of even degree d; dividing by y^(d/2) and writing
    y^j + y^-j in terms of x = y + 1/y gives a monic integer polynomial of
    degree d/2 killing 2cos(pi/n).
    """
    if n < 2:
        raise DomainError(f"minpoly_2cos_pi_over requires n >= 2, got {n}")
    c = _cyclotomic(2 * n)
    d = len(c) - 1
    if d % 2 != 0:
        raise InternalInconsistencyError("cyclotomic degree not even")
    h = d // 2
    # V_j(x) = y^j + y^-j as a polynomial in x = y + 1/y:
    # V_0 = 2, V_1 = x, V_j = x*V_{j-1} - V_{j-2}
    v_prev, v_cur = [2], [0, 1]
    acc = [c[h] * 1]
    for j in range(1, h + 1):
        if j > 1:
            vj = [0] + v_cur
            for i, a in enumerate(v_prev):
                vj[i] -= a
            v_prev, v_cur = v_cur, vj
        while len(acc) < len(v_cur):
            acc.append(0)
        for i, a in enumerate(v_cur):
            acc[i] += c[h + j] * a
    while len(acc) > 1 and acc[-1] == 0:
        acc.pop()
    if acc[-1] != 1:
        raise InternalInconsistencyError("minimal polynomial is not monic")
    return MinPoly(n, tuple(acc))


def _times_x(v, mp: MinPoly):
    """x v on the basis 1, x, .., x^(d-1): shift v up a degree, then subtract top * mp, since mp(x) = 0."""
    top = v[-1]
    v = [0] + v[:-1]
    return [a - top * c for a, c in zip(v, mp.coeffs)] if top else v


def _power_rows(mp: MinPoly, count):
    """Rows expressing x^k (k < count) on the basis 1, x, .., x^(d-1), one `_times_x` step each."""
    rows = [[1] + [0] * (mp.degree - 1)]
    while len(rows) < count:
        rows.append(_times_x(rows[-1], mp))
    return rows


def chebyshev_rows(mp: MinPoly, n):
    """[C_0, .., C_n] at x = 2cos(pi/mp.n) on the basis 1, x, .., x^(d-1), one `_times_x` step each.

    C_0 = 0, C_1 = 1 and C_{k+1} = x C_k - C_{k-1}, so C_k(2cos t) = sin(kt)/sin(t).
    """
    rows = [[0] * mp.degree, [1] + [0] * (mp.degree - 1)]
    while len(rows) <= n:
        rows.append([a - b for a, b in zip(_times_x(rows[-1], mp), rows[-2])])
    return rows


class Field:
    """The ambient ring Q(alpha, beta) for a fixed coprime pair (p, q)."""

    def __init__(self, p, q):
        if not (2 <= p < q):
            raise DomainError(f"need 2 <= p < q, got ({p},{q})")
        if math.gcd(p, q) != 1:
            raise DomainError(f"p and q must be coprime, got ({p},{q})")
        self.p = p
        self.q = q
        self.minpoly_p = minpoly_2cos_pi_over(p)
        self.minpoly_q = minpoly_2cos_pi_over(q)
        self.dp = self.minpoly_p.degree
        self.dq = self.minpoly_q.degree
        self._rows_a = _power_rows(self.minpoly_p, 2 * self.dp - 1)
        self._rows_b = _power_rows(self.minpoly_q, 2 * self.dq - 1)
        self.alpha_f = 2.0 * math.cos(math.pi / p)
        self.beta_f = 2.0 * math.cos(math.pi / q)
        self._basis_f = [
            [self.alpha_f**i * self.beta_f**j for j in range(self.dq)] for i in range(self.dp)
        ]
        # the units of 2^-53 and of 2^-1074 in AlgebraicNumber.float_with_error's bound, beside the term count
        self._float_error = 3 * (self.dp + self.dq) + 4, math.ldexp(1.0, self.dp + self.dq - 1074)
        self.zero = self.from_rational(0)
        self.one = self.from_rational(1)
        self.alpha = self.in_alpha(_times_x(self._rows_a[0], self.minpoly_p))
        self.beta = self.in_beta(_times_x(self._rows_b[0], self.minpoly_q))

    def __repr__(self):
        return f"Field(p={self.p}, q={self.q})"

    def from_rational(self, c: Rational) -> "AlgebraicNumber":
        m = [[0] * self.dq for _ in range(self.dp)]
        m[0][0] = c
        return AlgebraicNumber(self, tuple(tuple(row) for row in m))

    def in_alpha(self, v) -> "AlgebraicNumber":
        """sum v[i] alpha^i for dp coefficients v: the first column of the coefficient matrix."""
        pad = (0,) * (self.dq - 1)
        return AlgebraicNumber(self, tuple((a,) + pad for a in v))

    def in_beta(self, v) -> "AlgebraicNumber":
        """sum v[j] beta^j for dq coefficients v: the first row of the coefficient matrix."""
        return AlgebraicNumber(self, (tuple(v),) + ((0,) * self.dq,) * (self.dp - 1))


@lru_cache(maxsize=None)
def get_field(p, q) -> Field:
    return Field(p, q)


class AlgebraicNumber:
    """Canonical element of Q(alpha, beta); immutable and hashable."""

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field: Field, coeffs):
        self.field = field
        self.coeffs = coeffs
        self._hash = None

    # -- ring operations ----------------------------------------------------

    def _check(self, other):
        if self.field is not other.field:
            raise DomainError("mixed ambient fields in arithmetic")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        self._check(other)
        return AlgebraicNumber(
            self.field,
            tuple(
                tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.coeffs, other.coeffs)
            ),
        )

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicNumber(self.field, tuple(tuple(-a for a in row) for row in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return AlgebraicNumber(
                self.field, tuple(tuple(a * other for a in row) for row in self.coeffs)
            )
        self._check(other)
        f = self.field
        dp, dq = f.dp, f.dq
        if dp == 1 and dq == 1:
            return AlgebraicNumber(f, ((self.coeffs[0][0] * other.coeffs[0][0],),))
        ext = [[0] * (2 * dq - 1) for _ in range(2 * dp - 1)]
        for i, row in enumerate(self.coeffs):
            for j, a in enumerate(row):
                if a:
                    for k, row2 in enumerate(other.coeffs):
                        for l, b in enumerate(row2):
                            if b:
                                ext[i + k][j + l] += a * b
        # reduce alpha-degrees, then beta-degrees
        mid = [[0] * (2 * dq - 1) for _ in range(dp)]
        for k in range(2 * dp - 1):
            rowk = ext[k]
            if any(rowk):
                ar = f._rows_a[k]
                for i, av in enumerate(ar):
                    if av:
                        tgt = mid[i]
                        for l in range(2 * dq - 1):
                            if rowk[l]:
                                tgt[l] += av * rowk[l]
        out = [[0] * dq for _ in range(dp)]
        for i in range(dp):
            rowi = mid[i]
            for l in range(2 * dq - 1):
                v = rowi[l]
                if v:
                    br = f._rows_b[l]
                    tgt = out[i]
                    for j, bv in enumerate(br):
                        if bv:
                            tgt[j] += v * bv
        return AlgebraicNumber(f, tuple(tuple(row) for row in out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, other)
        return NotImplemented

    def __pow__(self, n):
        if n < 0:
            raise DomainError("negative powers are not supported")
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return all(a == 0 for row in self.coeffs for a in row)

    def is_rational(self):
        return all(
            a == 0 for i, row in enumerate(self.coeffs) for j, a in enumerate(row) if (i, j) != (0, 0)
        )

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise DomainError("value is irrational")
        return Fraction(self.coeffs[0][0])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and Fraction(self.coeffs[0][0]) == other
        if not isinstance(other, AlgebraicNumber):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.p, self.field.q, self.coeffs))
        return self._hash

    def __float__(self):
        return self.float_with_error()[0]

    def float_with_error(self):
        """(v, e): the float sum v of the terms a alpha^i beta^j, row by row, and |self - v| <= e.

        Take u = 2^-53, n nonzero terms, m = 3(dp + dq) and B = 2^(dp+dq-2),
        which bounds alpha^i beta^j (alpha, beta < 2).  Each term is
        fl(fl(a) b~) with b~ = `Field._basis_f`[i][j]:
        - fl(a) is correctly rounded (int and int/int division are), so
          |a - fl(a)| <= u |fl(a)|;
        - |b~ - alpha^i beta^j| <= m u |b~|.  This assumes that alpha~ =
          2cos(pi/p) as computed, beta~, and each power alpha~**i, beta~**j
          are within one ulp (a relative 2u) of their exact values (alpha~
          only where dp > 1: else only alpha~**0 = 1 is used); then the
          error is at most (2(i + j) + 5)u + O(u^2) <= (m - 1)u, counting
          one u for the product.  tests/test_exactnum.py's
          test_basis_floats_are_within_the_ulps_the_bound_assumes checks the
          assumption against 60-digit values;
        - the product adds u |fl(a) b~|.
        So each term is off by at most (m + 2)u |fl(a) b~|, and recursive
        summation adds (n - 1)u sum |term~| (Higham, Accuracy and Stability of
        Numerical Algorithms, section 3.1), to first order
            |self - v| <= (n + m + 1) u sum |term~|.
        The bound uses n + m + 4: the three spare units cover the O(u^2) terms
        and the rounding of the bound's own float evaluation while (n + m)^2 u
        < 1, which holds for any field that fits in memory.  Below 2^-1022
        errors are absolute: a subnormal fl(a) is off by 2^-1075, which b~ <= B
        magnifies, and a term or the bound itself rounds by 2^-1075; the
        n 2^(dp+dq-1074) = 4nB 2^-1074 added covers these.  A coefficient past
        the float range raises OverflowError from float(a); a term or sum that
        overflows leaves v infinite or NaN and e infinite, which vouches for
        nothing.
        """
        basis = self.field._basis_f
        v = scale = 0.0
        n = 0
        for i, row in enumerate(self.coeffs):
            for j, a in enumerate(row):
                if a:
                    t = float(a) * basis[i][j]
                    v += t
                    scale += abs(t)
                    n += 1
        units, tiny = self.field._float_error
        return v, (n + units) * 2.0**-53 * scale + n * tiny

    def __repr__(self):
        terms = []
        for i, row in enumerate(self.coeffs):
            for j, a in enumerate(row):
                if a:
                    mono = "".join(
                        s for s, e in (("a", i), ("b", j)) for s in ([f"{s}^{e}"] if e else [])
                    )
                    terms.append(f"{a}{'*' + mono if mono else ''}")
        return " + ".join(terms) if terms else "0"


class SignCertificate(NamedTuple):
    value: int  # -1, 0, +1
    precision_bits: int


_MAX_PREC = 1 << 20


def _scaled(coeffs, m, unit):
    """unit^d * f(m / unit) for the integer polynomial f = coeffs of degree d."""
    acc, scale = coeffs[-1], unit
    for c in reversed(coeffs[:-1]):
        acc, scale = acc * m + c * scale, scale * unit
    return acc


@lru_cache(maxsize=None)
def _power_brackets(mp: MinPoly, bits):
    """((A^k, (A+1)^k) for k < degree) with A = floor(2cos(pi/n) * 2^bits).

    Newton's method in integers on P(m) = 2^(d bits) mp(m / 2^bits) starts at
    the float value, or at the bracket for half the bits, and stops within a
    unit of the root, since every derivative of mp is positive from its
    largest root 2cos(pi/n) on; then m steps by one until P(m) < 0 < P(m + 1).
    Both loops are bounded.  The other roots lie at least 2cos(pi/n) -
    2cos(3pi/n) = 4 sin(pi/n) sin(2pi/n) >= 32/n^2 lower (n >= 4), so a sign
    change within 2^-40 of the float value isolates 2cos(pi/n) for n < 4*10^6.
    A degree-1 mp (n = 2, 3) needs no root, because only its 0th power is used.
    """
    if mp.degree == 1:
        return ((1, 1),)
    unit, half = 1 << bits, bits // 2
    num, den = (2 * math.cos(math.pi / mp.n)).as_integer_ratio()
    start = (num << bits) // den
    m = start if half < 64 else _power_brackets(mp, half)[1][0] << (bits - half)
    deriv = [k * c for k, c in enumerate(mp.coeffs)][1:]
    for _ in range(bits.bit_length() + 8):  # the correct bits double each step
        step = _scaled(mp.coeffs, m, unit) // _scaled(deriv, m, unit)
        if not step:
            break
        m -= step
    for _ in range(64):
        low, high = _scaled(mp.coeffs, m, unit), _scaled(mp.coeffs, m + 1, unit)
        if low < 0 < high and abs(m - start) <= unit >> 40:
            return tuple((m**k, (m + 1) ** k) for k in range(mp.degree))
        m += 1 if high < 0 else -1
    raise InternalInconsistencyError(f"no sign change of the minimal polynomial near 2cos(pi/{mp.n})")


def sign(x: AlgebraicNumber) -> SignCertificate:
    """Certified sign: symbolic zero test, then the float, then interval refinement.

    Fast paths: rational values read the sign off the coefficient, and a
    value whose float v exceeds its bound e from `float_with_error` has the
    sign of v, decided at machine precision, since |x - v| <= e < |v|.  Only
    near-cancellations reach the integer intervals:
    at N bits, with A, B the floors of alpha * 2^N, beta * 2^N and D the lcm of
    the coefficient denominators, alpha, beta >= 0 put each monomial
    alpha^i beta^j 2^(N(i+j)) in [A^i B^j, (A+1)^i (B+1)^j], so integers
    lo <= D x 2^(N(dp+dq-2)) <= hi follow.  N doubles from 64 until lo > 0 or
    hi < 0; the certificate records it.
    """
    if x.is_zero():
        return SignCertificate(0, 0)
    f = x.field
    if x.is_rational():
        return SignCertificate(1 if x.coeffs[0][0] > 0 else -1, 64)
    try:
        val, err = x.float_with_error()
        if abs(val) > err:
            return SignCertificate(1 if val > 0 else -1, 53)
    except OverflowError:
        pass
    den = math.lcm(*(a.denominator for row in x.coeffs for a in row))
    terms = [(i, j, a.numerator * (den // a.denominator))
             for i, row in enumerate(x.coeffs) for j, a in enumerate(row) if a]
    top = f.dp + f.dq - 2
    bits = 64
    while bits <= _MAX_PREC:
        pa, pb = _power_brackets(f.minpoly_p, bits), _power_brackets(f.minpoly_q, bits)
        lo = hi = 0
        for i, j, c in terms:
            shift = bits * (top - i - j)
            ends = ((pa[i][0] * pb[j][0]) << shift, (pa[i][1] * pb[j][1]) << shift)
            lo += c * ends[c < 0]  # c < 0 swaps the ends
            hi += c * ends[c > 0]
        if lo > 0 or hi < 0:
            return SignCertificate(1 if lo > 0 else -1, bits)
        bits *= 2
    raise InternalInconsistencyError("sign refinement did not separate a nonzero value from 0")
