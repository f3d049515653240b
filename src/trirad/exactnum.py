"""Exact arithmetic in Q(2cos(pi/p), 2cos(pi/q)) with certified signs.

Elements are stored on the monomial basis alpha^i beta^j where alpha = 2cos(pi/p)
and beta = 2cos(pi/q).  Since gcd(p,q) = 1 the two real cyclotomic fields
intersect in Q, so the basis is honest and canonical coefficient matrices decide
equality.  Signs of nonzero values are certified by interval arithmetic at
doubling precision; the zero value is recognized symbolically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

import mpmath

from trirad.errors import DomainError, InternalInconsistencyError

Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, lowest degree first)


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _poly_divexact(f, g):
    """Exact division of integer polynomials; g must divide f."""
    f = list(f)
    dg = len(g) - 1
    lead = g[-1]
    out = [0] * (len(f) - dg)
    for k in range(len(out) - 1, -1, -1):
        coeff = f[k + dg]
        if coeff % lead != 0:
            raise InternalInconsistencyError("non-exact polynomial division")
        coeff //= lead
        out[k] = coeff
        if coeff:
            for j, b in enumerate(g):
                f[k + j] -= coeff * b
    if any(f[:dg]):
        raise InternalInconsistencyError("non-exact polynomial division")
    return out


def _divisors(m):
    out = [d for d in range(1, m + 1) if m % d == 0]
    return out


@lru_cache(maxsize=None)
def _cyclotomic(m):
    """Coefficients of the m-th cyclotomic polynomial."""
    poly = [-1] + [0] * (m - 1) + [1]  # y^m - 1
    for d in _divisors(m):
        if d < m:
            poly = _poly_divexact(poly, _cyclotomic(d))
    return tuple(poly)


@dataclass(frozen=True)
class MinPoly:
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


def _power_rows(mp: MinPoly, count):
    """Rows expressing x^k (k < count) on the basis 1, x, .., x^(d-1)."""
    d = mp.degree
    rows = []
    for k in range(count):
        if k < d:
            row = [0] * d
            row[k] = 1
        else:
            prev = rows[k - 1]
            row = [0] * d
            for i in range(d - 1):
                row[i + 1] += prev[i]
            top = prev[d - 1]
            if top:
                for i in range(d):
                    row[i] -= top * mp.coeffs[i]
        rows.append(row)
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
        zero_m = tuple(tuple(0 for _ in range(self.dq)) for _ in range(self.dp))
        self.zero = AlgebraicNumber(self, zero_m)
        self.one = self.from_rational(1)
        self.alpha = self.element({(1, 0): 1})
        self.beta = self.element({(0, 1): 1})

    def __repr__(self):
        return f"Field(p={self.p}, q={self.q})"

    def from_rational(self, c: Rational) -> "AlgebraicNumber":
        m = [[0] * self.dq for _ in range(self.dp)]
        m[0][0] = c
        return AlgebraicNumber(self, tuple(tuple(row) for row in m))

    def element(self, terms) -> "AlgebraicNumber":
        """Reduce a raw polynomial {(i, j): coeff} in alpha, beta to canonical form.

        Arbitrary exponents are allowed; they are rewritten on the basis with
        the rows of `_power_rows`.
        """
        terms = [(i, j, coeff) for (i, j), coeff in dict(terms).items() if coeff != 0]
        if any(i < 0 or j < 0 for i, j, _ in terms):
            raise DomainError("negative exponents are not in the polynomial ring")
        rows_a = _power_rows(self.minpoly_p, 1 + max((i for i, _, _ in terms), default=0))
        rows_b = _power_rows(self.minpoly_q, 1 + max((j for _, j, _ in terms), default=0))
        out = [[0] * self.dq for _ in range(self.dp)]
        for i, j, coeff in terms:
            for ii, av in enumerate(rows_a[i]):
                if av:
                    for jj, bv in enumerate(rows_b[j]):
                        if bv:
                            out[ii][jj] += coeff * av * bv
        return AlgebraicNumber(self, tuple(tuple(row) for row in out))

    @lru_cache(maxsize=None)
    def _iv_generators(self, prec):
        iv = mpmath.iv
        old = iv.prec
        iv.prec = prec
        try:
            pi = iv.pi
            alpha = 2 * iv.cos(pi / self.p)
            beta = 2 * iv.cos(pi / self.q)
        finally:
            iv.prec = old
        return alpha, beta


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
        if isinstance(other, int):
            other = Fraction(other)
        if isinstance(other, Fraction):
            return self * (1 / other)
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
        f = self.field
        total = 0.0
        for i, row in enumerate(self.coeffs):
            for j, a in enumerate(row):
                if a:
                    total += float(a) * f._basis_f[i][j]
        return total

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


@dataclass(frozen=True)
class SignCertificate:
    value: int  # -1, 0, +1
    precision_bits: int


_MAX_PREC = 1 << 20


def sign(x: AlgebraicNumber) -> SignCertificate:
    """Certified sign: symbolic zero test, then interval refinement.

    Fast paths: rational values read the sign off the coefficient, and values
    whose float evaluation clears a conservative error bound are decided at
    machine precision; only near-cancellations reach the mpmath intervals.
    """
    if x.is_zero():
        return SignCertificate(0, 0)
    f = x.field
    if x.is_rational():
        return SignCertificate(1 if x.coeffs[0][0] > 0 else -1, 64)
    try:
        val = 0.0
        scale = 0.0
        for i, row in enumerate(x.coeffs):
            for j, a in enumerate(row):
                if a:
                    fa = float(a)
                    b = f._basis_f[i][j]
                    val += fa * b
                    scale += abs(fa) * abs(b)
        if abs(val) > 1e-12 * scale:
            return SignCertificate(1 if val > 0 else -1, 53)
    except OverflowError:
        pass
    prec = 64
    iv = mpmath.iv
    while prec <= _MAX_PREC:
        old = iv.prec
        iv.prec = prec
        try:
            alpha, beta = f._iv_generators(prec)
            apows = [iv.mpf(1)]
            for _ in range(f.dp - 1):
                apows.append(apows[-1] * alpha)
            bpows = [iv.mpf(1)]
            for _ in range(f.dq - 1):
                bpows.append(bpows[-1] * beta)
            total = iv.mpf(0)
            for i, row in enumerate(x.coeffs):
                for j, a in enumerate(row):
                    if a:
                        if isinstance(a, Fraction):
                            c = iv.mpf(a.numerator) / a.denominator
                        else:
                            c = iv.mpf(a)
                        total += c * apows[i] * bpows[j]
            if total.a > 0:
                return SignCertificate(1, prec)
            if total.b < 0:
                return SignCertificate(-1, prec)
        finally:
            iv.prec = old
        prec *= 2
    raise InternalInconsistencyError("sign refinement did not separate a nonzero value from 0")


def chebyshev_C(n: int, x: AlgebraicNumber) -> AlgebraicNumber:
    """Chebyshev value C_n(x) with C_0 = 0, C_1 = 1, C_{k+1} = 2x C_k - C_{k-1}."""
    return chebyshev_C_2x(n, 2 * x)


def chebyshev_C_2x(n: int, two_x: AlgebraicNumber) -> AlgebraicNumber:
    """Same recurrence driven by 2x; keeps coefficients integral for 2x = alpha."""
    if n < 0:
        return -chebyshev_C_2x(-n, two_x)
    field = two_x.field
    prev, cur = field.zero, field.one
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, two_x * cur - prev
    return cur
