"""Exact field arithmetic: minimal polynomials, reduction, certified signs."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import trirad
from trirad.errors import DomainError
from trirad.exactnum import (
    _power_brackets,
    chebyshev_C,
    chebyshev_C_2x,
    get_field,
    minpoly_2cos_pi_over,
    sign,
)


def test_minpoly_small():
    # 2cos(pi/2) = 0, 2cos(pi/3) = 1, 2cos(pi/5) = golden ratio
    assert minpoly_2cos_pi_over(2).coeffs == (0, 1)
    assert minpoly_2cos_pi_over(3).coeffs == (-1, 1)
    assert minpoly_2cos_pi_over(5).coeffs == (-1, -1, 1)
    assert minpoly_2cos_pi_over(4).coeffs == (-2, 0, 1)


def test_minpoly_rejects_small_n():
    with pytest.raises(DomainError):
        minpoly_2cos_pi_over(1)


@pytest.mark.parametrize("n", range(2, 31))
def test_minpoly_degree_and_root(n):
    mp = minpoly_2cos_pi_over(n)
    assert mp.degree == sympy.totient(2 * n) // 2
    x = 2 * math.cos(math.pi / n)
    val = sum(c * x**k for k, c in enumerate(mp.coeffs))
    assert abs(val) < 1e-9


@pytest.mark.parametrize("n", [7, 9, 11, 12, 15])
def test_minpoly_matches_sympy(n):
    mp = minpoly_2cos_pi_over(n)
    y = sympy.symbols("y")
    expected = sympy.minimal_polynomial(2 * sympy.cos(sympy.pi / n), y)
    ours = sum(c * y**k for k, c in enumerate(mp.coeffs))
    assert sympy.expand(ours - expected) == 0


def test_reduction_degenerate_generators():
    # alpha = 0 in the (2,q) fields, beta = 1 at q = 3
    f = get_field(2, 3)
    assert f.alpha == 0
    assert f.beta == 1
    assert (f.alpha + f.beta).rational_value() == 1


def test_reduction_golden_ratio():
    # alpha = 2cos(pi/5) satisfies x^2 = x + 1
    f = get_field(5, 7)
    assert f.alpha * f.alpha == f.alpha + 1


def test_element_with_large_exponents():
    f = get_field(3, 5)
    a = f.element({(7, 0): 1})
    assert a == f.alpha**7
    with pytest.raises(DomainError):
        f.element({(-1, 0): 1})


def test_rational_interface():
    f = get_field(2, 5)
    x = f.from_rational(Fraction(3, 2))
    assert x.is_rational()
    assert x.rational_value() == Fraction(3, 2)
    assert not f.beta.is_rational()
    with pytest.raises(DomainError):
        f.beta.rational_value()


def test_float_evaluation():
    f = get_field(3, 4)
    x = 2 * f.alpha - f.beta * f.beta + Fraction(1, 2)
    expected = 2 * f.alpha_f - f.beta_f**2 + 0.5
    assert abs(float(x) - expected) < 1e-12


def test_sign_certificates():
    f = get_field(2, 5)
    assert sign(f.zero).value == 0
    assert sign(f.from_rational(-7)).value == -1
    # beta = golden ratio: beta^2 - beta - 1 = 0 exactly
    assert sign(f.beta * f.beta - f.beta - 1).value == 0
    # beta - 1.6 is a genuine near-cancellation decided positively
    assert sign(f.beta - Fraction(8, 5)).value == 1
    assert sign(f.beta - Fraction(1618034, 1000000)).value == -1


def test_sign_huge_coefficients():
    f = get_field(2, 5)
    big = 10**400
    assert sign(f.beta * big - big).value == 1


def _reference(x, digits):
    """x evaluated by sympy to `digits` significant digits."""
    f = x.field
    alpha = (2 * sympy.cos(sympy.pi / f.p)).evalf(digits)
    beta = (2 * sympy.cos(sympy.pi / f.q)).evalf(digits)
    total = sympy.Float(0, digits)
    for i, row in enumerate(x.coeffs):
        for j, a in enumerate(row):
            total += sympy.Rational(a.numerator, a.denominator) * alpha**i * beta**j
    return total


@pytest.mark.parametrize("p,q", [(2, 5), (2, 7), (3, 4), (3, 5), (4, 5), (5, 7), (7, 11)])
def test_interval_tier_matches_sympy_on_deep_cancellations(p, q):
    # g 10^k - floor(g 10^k) cancels k digits, and x - r about k/2 more
    f = get_field(p, q)
    bits = []
    for g in (f.alpha, f.beta):
        if g.is_rational():
            continue
        for k in (20, 80, 320, 600):
            digits = 2 * k + 60
            fl = int(sympy.floor(_reference(g, digits) * 10**k))
            x = g * 10**k - fl
            r = Fraction(int(sympy.floor(_reference(x, digits) * 10 ** (k // 2))), 10 ** (k // 2))
            tiny = Fraction(1, 10 ** (k // 2))
            cases = [x, x - 1, x - r + tiny, x - r - tiny, x - r]
            for v in cases + [-v for v in cases]:  # both signs of the coefficient of g
                ref = _reference(v, digits)
                assert abs(ref) > sympy.Float(10) ** (20 - digits)
                cert = sign(v)
                assert cert.value == (1 if ref > 0 else -1)
                bits.append(cert.precision_bits)
    assert max(bits) >= 1024


@pytest.mark.parametrize("n", [4, 5, 7, 11, 13])
@pytest.mark.parametrize("bits", [64, 1024, 16384])
def test_power_brackets_hold_the_floor(n, bits):
    mp = minpoly_2cos_pi_over(n)
    scaled = (2 * sympy.cos(sympy.pi / n)).evalf(bits * 3 // 10 + 30) * 2**bits
    a = int(scaled)
    assert a < scaled < a + 1
    brackets = _power_brackets(mp, bits)
    assert len(brackets) == mp.degree
    assert brackets[:2] == ((1, 1), (a, a + 1))
    assert all(lo == a**k and hi == (a + 1) ** k for k, (lo, hi) in enumerate(brackets))


def test_degenerate_generators_need_no_root():
    assert _power_brackets(minpoly_2cos_pi_over(2), 64) == ((1, 1),)
    assert _power_brackets(minpoly_2cos_pi_over(3), 1 << 20) == ((1, 1),)


def test_import_does_not_load_mpmath():
    env = dict(os.environ, PYTHONPATH=str(Path(trirad.__file__).parents[1]))
    code = "import trirad.cli, trirad.symbols, trirad.linking, sys; assert 'mpmath' not in sys.modules"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr


def test_chebyshev_values():
    f = get_field(2, 3)
    x = f.beta  # = 1
    assert chebyshev_C(0, x) == 0
    assert chebyshev_C(1, x) == 1
    assert chebyshev_C(2, x) == 2  # 2x at x=1
    assert chebyshev_C(-2, x) == -2
    g = get_field(2, 7)
    # C_n(cos t) = sin(nt)/sin(t); check at t = pi/7 with x = beta/2
    t = math.pi / 7
    for n in range(8):
        val = float(chebyshev_C_2x(n, g.beta))
        assert abs(val - math.sin(n * t) / math.sin(t)) < 1e-10


def test_field_validation():
    with pytest.raises(DomainError):
        get_field(3, 3)
    with pytest.raises(DomainError):
        get_field(2, 4)
    with pytest.raises(DomainError):
        get_field(3, 2)


small = st.integers(min_value=-8, max_value=8)


def elements(f):
    return st.builds(
        lambda cs: sum(
            (c * f.alpha**i * f.beta**j for (i, j), c in zip([(0, 0), (1, 0), (0, 1), (1, 1)], cs)),
            f.zero,
        ),
        st.tuples(small, small, small, small),
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_laws(data):
    f = get_field(3, 5)
    x = data.draw(elements(f))
    y = data.draw(elements(f))
    z = data.draw(elements(f))
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x - x == f.zero
    assert x * f.one == x


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sign_is_multiplicative(data):
    f = get_field(3, 4)
    x = data.draw(elements(f))
    y = data.draw(elements(f))
    assert sign(x * y).value == sign(x).value * sign(y).value


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_form_is_faithful(data):
    # equal canonical coefficients iff numerically equal
    f = get_field(2, 5)
    x = data.draw(elements(f))
    y = data.draw(elements(f))
    if x == y:
        assert abs(float(x) - float(y)) < 1e-9
    else:
        assert sign(x - y).value != 0
