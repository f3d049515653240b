"""Rademacher symbols: generator values, coboundary laws, (2,3) oracles."""

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import PQ_LIST, random_element
from trirad import group, symbols
from trirad.errors import DomainError
from trirad.exactnum import sign
from trirad.group import Element, asai_sign, cocycle_W_el, get_params, is_cusp_word
from trirad.symbols import (
    dedekind_Phi,
    dedekind_sum,
    euler_cocycle,
    ghys_coding_23,
    homogeneous_Psi_h,
    modified_Psi_e,
    phi23_formula,
    psi,
    psi_via_cocycle,
    rademacher_Psi,
    syllable_Psi,
    symbol_report,
)
from trirad.words import Syllable, parse_word


def el(params, text):
    return Element(params, parse_word(text))


@pytest.mark.parametrize("p,q", PQ_LIST)
def test_generator_values(p, q):
    params = get_params(p, q)
    assert psi(Element.translation(params)) == params.r
    assert psi(Element.generator(params, "S")) == -q
    assert psi(Element.generator(params, "U")) == -p
    assert psi(-Element.identity(params)) == p * q
    assert psi(Element.identity(params)) == 0


def test_psi_examples_23(P23):
    # trace-3 class fixing the golden ratio
    assert psi(el(P23, "U * S * U^2 * S")) == 0
    assert psi(el(P23, "- U * S * U * S * U^2 * S")) == 1
    assert psi(Element.translation(P23, 7)) == 7
    assert psi(Element.translation(P23, -7)) == -7


def test_psi_inversion_rule(P23, P34, rng):
    # psi(g^-1) = -psi(g) except on the c=0, d<0 coset where it shifts by 2pq
    t = Element.translation(P34, 5)
    assert psi(t.inverse()) == -psi(t)
    minus = -Element.identity(P34)
    assert psi(minus.inverse()) == psi(minus) == 12  # c=0, d<0: -12 + 24
    for _ in range(30):
        x = random_element(P23, rng)
        if not x.matrix.c.is_zero():
            assert psi(x.inverse()) == -psi(x)


@pytest.mark.parametrize("p,q", PQ_LIST)
def test_dual_pipelines_agree(p, q, rng):
    params = get_params(p, q)
    for _ in range(60):
        x = random_element(params, rng)
        assert psi(x) == psi_via_cocycle(x)


def test_long_words_stay_on_the_float_tier(rng, monkeypatch):
    # (5,7) words of 900 syllables pass the float range; the rescaled shadow
    # still decides every sign of both pipelines, and Element.asai and
    # trace_sign are read off the word, so no sign here is exact
    params = get_params(5, 7)
    while True:
        x = random_element(params, rng, 900, min_syllables=900)
        sylls = x.word.syllables
        if not any(is_cusp_word(sylls[:i], 5, 7) for i in range(2, 901, 2)):
            break
    ref = Element(params, x.word, _normalized=True)

    def no_exact_sign(*args):
        raise AssertionError("exact sign taken")

    with monkeypatch.context() as mp:
        for module in (group, symbols):
            mp.setattr(module, "sign", no_exact_sign)
        mp.setattr(group, "asai_sign", no_exact_sign)
        got = (psi(x), psi_via_cocycle(x), x.asai(), x.trace_sign())
    assert x._matrix is None and x.fmat[2] > 0
    with monkeypatch.context() as mp:
        mp.setattr(group, "_decided_sign", lambda x, err: None)  # every prefix sign exact
        exact_psi = psi(ref)
    assert got == (exact_psi, exact_psi, asai_sign(ref.matrix), sign(ref.matrix.trace).value)


@pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (5, 7)])
def test_coboundary_of_psi(p, q, rng):
    params = get_params(p, q)
    pq = p * q
    for _ in range(60):
        x = random_element(params, rng)
        y = random_element(params, rng)
        assert psi(x * y) - psi(x) - psi(y) == 2 * pq * cocycle_W_el(x, y)


def test_Psi_values(P23, P25):
    assert rademacher_Psi(el(P23, "S")) == 0
    assert rademacher_Psi(Element.translation(P23)) == 1
    assert rademacher_Psi(-Element.identity(P23)) == 0
    assert rademacher_Psi(el(P23, "U * S * U^2 * S")) == 0
    assert rademacher_Psi(el(P25, "U")) == -2  # elliptic with tr = beta > 0, no shift


def test_Psi_class_properties(P34, rng):
    for _ in range(40):
        x = random_element(P34, rng)
        g = random_element(P34, rng)
        assert rademacher_Psi(x.conjugate(g)) == rademacher_Psi(x)
        assert rademacher_Psi(-x) == rademacher_Psi(x)
        assert rademacher_Psi(x.inverse()) == -rademacher_Psi(x)


def test_Psi_power_rule(P23, P25):
    for x in [Element.translation(P23), el(P23, "U * S * U^2 * S"), el(P25, "U * S * U^3")]:
        base = rademacher_Psi(x)
        for n in range(-5, 6):
            assert rademacher_Psi(x**n) == n * base


def _Psi_from_psi(x):
    """The psi-based identity 2 Psi = 2 psi + pq asai (1 - trace sign)."""
    twice = 2 * psi(x) + x.params.p * x.params.q * x.asai() * (1 - x.trace_sign())
    assert twice % 2 == 0, x
    return twice // 2


@pytest.mark.parametrize("p,q", PQ_LIST)
def test_Psi_from_the_word_matches_psi(p, q, rng):
    # rademacher_Psi reads the reduced word; psi folds signs over the whole word
    params = get_params(p, q)
    one, minus = Element.identity(params), -Element.identity(params)
    xs = [one, minus]
    for sigma in (one, minus):
        xs += [sigma * Element.generator(params, "S", a) for a in range(1, p)]
        xs += [sigma * Element.generator(params, "U", b) for b in range(1, q)]
    for _ in range(25):
        x = random_element(params, rng, 10)
        xs += [x, x.conjugate(random_element(params, rng)), -x, x.inverse()]
        xs += [x**n for n in range(-5, 6)]
    for x in xs:
        assert rademacher_Psi(x) == _Psi_from_psi(x), x


def test_Phi_values(P23):
    assert dedekind_Phi(Element.translation(P23)) == 1
    assert dedekind_Phi(el(P23, "S")) == 0  # q(p-2)/2 at p = 2
    assert dedekind_Phi(el(P23, "U * S * U^2 * S")) == 3


def test_Phi_half_integrality(P34, rng):
    for _ in range(40):
        x = random_element(P34, rng)
        assert (2 * dedekind_Phi(x)).denominator == 1


def test_variant_values(P23, P25):
    u2 = el(P25, "U^2")
    assert u2.classify() == "elliptic"
    assert homogeneous_Psi_h(u2) == 0
    assert modified_Psi_e(u2) == -4  # -e*p at e=2
    s = el(P23, "S")
    assert modified_Psi_e(s) == -3
    assert modified_Psi_e(s.conjugate(el(P23, "U * S"))) == -3
    hyp = el(P23, "U * S * U^2 * S")
    assert homogeneous_Psi_h(hyp) == modified_Psi_e(hyp) == rademacher_Psi(hyp)


def test_euler_cocycle(P23, P34, rng):
    s = el(P23, "S")
    assert euler_cocycle(s, s) == -1
    one = Element.identity(P23)
    assert euler_cocycle(one, one) == 0
    for _ in range(40):
        x = random_element(P34, rng)
        y = random_element(P34, rng)
        euler_cocycle(x, y)  # raises on non-integrality
    with pytest.raises(DomainError):
        euler_cocycle(s, Element.identity(get_params(2, 5)))


def test_dedekind_sums():
    assert dedekind_sum(1, 1) == 0
    assert dedekind_sum(1, 3) == Fraction(1, 18)
    assert dedekind_sum(5, 7) == dedekind_sum(5 % 7, 7)
    # reciprocity: s(a,c) + s(c,a) = -1/4 + (a/c + c/a + 1/(ac))/12
    for a, c in [(3, 7), (5, 12), (7, 11)]:
        lhs = dedekind_sum(a, c) + dedekind_sum(c, a)
        rhs = Fraction(-1, 4) + (Fraction(a, c) + Fraction(c, a) + Fraction(1, a * c)) / 12
        assert lhs == rhs
    with pytest.raises(DomainError):
        dedekind_sum(1, 0)


def test_dedekind_sum_matches_the_definition():
    # the definition in integers: 4c^2 s(a,c) = sum_{k<c} (2k - c)(2(ka mod c) - c), a term 0 where c | ka;
    # every coprime pair with |a| <= 300 and c <= 300, and every pair with c < 60 and |a| < 70
    for c in range(1, 301):
        k = np.arange(1, c)
        r = np.outer(np.arange(c), k) % c  # r[a, k - 1] = ka mod c
        four_c2_s = np.where(r > 0, 2 * r - c, 0) @ (2 * k - c)
        for a in range(-300, 301):
            if math.gcd(a, c) == 1 or (c < 60 and abs(a) < 70):
                assert dedekind_sum(a, c) * 4 * c * c == int(four_c2_s[a % c]), (a, c)


def test_phi23_formula_takes_milliseconds_at_large_c(P23):
    # Dedekind's closed form against Phi read off the word, on words of 180 syllables, where |c| passes 10^12
    rng = random.Random(2024)
    for _ in range(5):
        x = random_element(P23, rng, max_syllables=180, min_syllables=180)
        a, b, c, d = (int(v.rational_value()) for v in x.matrix.entries())
        assert abs(c) > 10**12
        start = time.process_time()
        value = phi23_formula(a, b, c, d)
        assert time.process_time() - start < 0.05
        assert value == dedekind_Phi(x), x.word


def test_phi23_formula():
    assert phi23_formula(1, 5, 0, 1) == 5
    assert phi23_formula(2, 1, 1, 1) == 3
    assert phi23_formula(0, -1, 1, 0) == Fraction(0, 1) - 12 * dedekind_sum(0, 1)
    with pytest.raises(DomainError):
        phi23_formula(1, 0, 0, 2)


def test_phi23_matches_cocycle(P23):
    # every element with at most 8 syllables, both central signs
    from itertools import product

    from trirad.words import GroupWord, Syllable

    def words():
        yield GroupWord(1, ())
        yield GroupWord(-1, ())
        for k in range(1, 9):
            for start in ("S", "U"):
                gens = [start if i % 2 == 0 else ("U" if start == "S" else "S") for i in range(k)]
                pools = [(1,) if g == "S" else (1, 2) for g in gens]
                for exps in product(*pools):
                    sylls = tuple(Syllable(g, e) for g, e in zip(gens, exps))
                    yield GroupWord(1, sylls)
                    yield GroupWord(-1, sylls)

    for w in words():
        x = Element(P23, w, _normalized=True)
        a, b, c, d = (int(v.rational_value()) for v in x.matrix.entries())
        assert dedekind_Phi(x) == phi23_formula(a, b, c, d), w


def test_ghys_coding(P23):
    c = ghys_coding_23(el(P23, "U * S * U^2 * S"))
    assert sorted(c.epsilons) == [-1, 1]
    assert c.total == 0 == rademacher_Psi(el(P23, "U * S * U^2 * S"))
    c = ghys_coding_23(el(P23, "- U * S * U * S * U^2 * S"))
    assert c.total == 1
    # read from the first S of the cyclically reduced word: S U S U^2
    assert ghys_coding_23(el(P23, "U^2 * S * U * S")).epsilons == (1, -1)
    with pytest.raises(DomainError):
        ghys_coding_23(el(P23, "S"))
    with pytest.raises(DomainError):
        ghys_coding_23(el(get_params(2, 5), "U * S * U^3"))


def test_syllable_Psi_values_and_domain(P23):
    L, R = (Syllable("S", 1), Syllable("U", 1)), (Syllable("S", 1), Syllable("U", 2))
    assert syllable_Psi(L + R + R, 2, 3) == -1  # #L - #R
    assert syllable_Psi(L + R, 2, 3) == 0 == rademacher_Psi(el(P23, "S * U * S * U^2"))
    # T^-1 = -(S^(p-1) U^(q-1)): Psi = -r on every pair
    for p, q in PQ_LIST:
        assert syllable_Psi((Syllable("S", p - 1), Syllable("U", q - 1)), p, q) == -(p * q - p - q)
    bad = [(), L[:1], L[::-1], L + L[:1], (Syllable("S", 2), Syllable("U", 1)), (Syllable("S", 1), Syllable("U", 3))]
    for sylls in bad:
        with pytest.raises(DomainError):
            syllable_Psi(sylls, 2, 3)


MALFORMED = {
    "odd length": (Syllable("S", 1), Syllable("U", 1), Syllable("S", 1)),
    "empty": (),
    "U first": (Syllable("U", 1), Syllable("S", 1)),
    "S exponent 0": (Syllable("S", 0), Syllable("U", 1)),
    "U exponent 0": (Syllable("S", 1), Syllable("U", 0)),
    "S exponent p": (Syllable("S", 3), Syllable("U", 1)),
    "U exponent q": (Syllable("S", 1), Syllable("U", 5)),
    "negative exponent": (Syllable("S", 1), Syllable("U", 2), Syllable("S", -1), Syllable("U", 1)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_syllable_Psi_refuses_malformed_words(case):
    # no assert: the test means the same under python -O
    with pytest.raises(DomainError):
        syllable_Psi(MALFORMED[case], 3, 5)


def test_syllable_Psi_checks_are_not_asserts():
    tests = Path(__file__).resolve().parent
    code = "import sys, test_symbols as t; [t.test_syllable_Psi_refuses_malformed_words(c) for c in t.MALFORMED]; print(sys.flags.optimize)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    res = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0 and res.stdout.strip() == "1", res.stdout + res.stderr


def test_symbol_report(P23):
    rep = symbol_report(el(P23, "U * S * U^2 * S"))
    d = rep.to_dict()
    assert d["psi"] == 0 and d["Psi"] == 0 and d["Phi"] == "6/2"
    assert d["classification"] == "hyperbolic"
    assert d["asai_sign"] == 1 and d["trace_sign"] == 1
    rep = symbol_report(Element.identity(P23))
    assert rep.to_dict()["Phi"] == "0/2"
