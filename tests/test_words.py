"""Normal forms, cyclic reduction and the word grammar."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PQ_LIST, random_element
from trirad.errors import ParseError
from trirad.group import Element, get_params
from trirad.words import (
    IDENTITY,
    GroupWord,
    Syllable,
    cyclic_reduce,
    minimal_period,
    multiply,
    normal_form,
    normal_inverse,
    parse_word,
    render_word,
)


def W(text):
    return parse_word(text)


def test_normal_form_merges_and_reduces():
    # S^2 = -I at p = 2
    assert normal_form(W("S^2"), 2, 3) == GroupWord(-1, ())
    assert normal_form(W("S * S"), 2, 3) == GroupWord(-1, ())
    # U^3 = -I at q = 3, so U^4 = -U
    assert normal_form(W("U^4"), 2, 3) == GroupWord(-1, (Syllable("U", 1),))
    # inverse exponents wrap with a sign: S^-1 = -S at p = 2
    assert normal_form(W("S^-1"), 2, 3) == GroupWord(-1, (Syllable("S", 1),))
    # cascading merge: S U U^2 S at (2,3) -> S U^3 S -> -S^2 -> I
    assert normal_form(W("S * U * U^2 * S"), 2, 3) == IDENTITY


def test_normal_form_keeps_alternation():
    w = normal_form(W("S * U^5 * U^3 * S^2"), 3, 5)
    assert w == GroupWord(-1, (Syllable("S", 1), Syllable("U", 3), Syllable("S", 2)))


def _stack_normal_form(w, p, q):
    """The reference: push each syllable, then merge the top two and reduce the top until neither applies."""
    sign, stack = w.sign, []
    for syl in w.syllables:
        stack.append(syl)
        while True:
            if len(stack) >= 2 and stack[-1].gen == stack[-2].gen:
                top, prev = stack.pop(), stack.pop()
                stack.append(Syllable(top.gen, prev.exp + top.exp))
                continue
            g, e = stack[-1]
            k, e2 = divmod(e, p if g == "S" else q)
            if k & 1:
                sign = -sign
            if e2 == 0:
                stack.pop()
                if stack:
                    continue
            elif e2 != e:
                stack[-1] = Syllable(g, e2)
            break
    return GroupWord(sign, tuple(stack))


@pytest.mark.parametrize("p,q", PQ_LIST)
def test_normal_form_matches_the_stack_algorithm(p, q):
    rng = random.Random(3300 + 10 * p + q)
    orders = (("S", p), ("U", q))
    ws = [GroupWord(s, ()) for s in (1, -1)]
    # G^n * G^n = (-I)^2 cancels completely; G^0, G^+-n and G^+-3n are central
    ws += [GroupWord(s, (Syllable(g, n),) * 2) for s in (1, -1) for g, n in orders]
    ws += [GroupWord(s, (Syllable(g, e),)) for s in (1, -1) for g, n in orders for e in (0, n, -n, 3 * n, -3 * n)]
    for _ in range(400):
        raw = []
        for _ in range(rng.randint(0, 12)):
            g, n = rng.choice(orders)
            raw.append(Syllable(g, rng.randint(-3 * n, 3 * n)))
        ws.append(GroupWord(rng.choice((1, -1)), tuple(raw)))
    for w in ws:
        nf = normal_form(w, p, q)
        assert nf == _stack_normal_form(w, p, q), w
        assert normal_form(nf, p, q) is nf  # a normal word is returned itself
        assert all(0 < e < dict(orders)[g] for g, e in nf.syllables)


@pytest.mark.parametrize("p,q", PQ_LIST)
def test_inverse_is_written_in_normal_form(p, q):
    P = get_params(p, q)
    rng = random.Random(3400 + 10 * p + q)
    els = [Element.identity(P), -Element.identity(P)] + [random_element(P, rng, 12) for _ in range(80)]
    for x in els:
        inv = x.inverse()
        assert inv == Element(P, x.word.inverse()), x
        assert normal_form(inv.word, p, q) == inv.word
        assert normal_inverse(inv.word, p, q) == x.word
        assert (x * inv).word == (inv * x).word == IDENTITY
        assert x**-3 == inv * inv * inv


def test_multiply_cancels():
    w = W("S * U^2")
    assert multiply(w, w.inverse(), 3, 5) == IDENTITY
    assert multiply(w.inverse(), w, 3, 5) == IDENTITY


def test_inverse_of_sign():
    assert GroupWord(-1, ()).inverse() == GroupWord(-1, ())


def test_cyclic_reduce_examples():
    w = W("S * U^2 * S")  # conjugate of S^2 U^2 = -U^2
    red, conj = cyclic_reduce(w, 2, 3)
    assert red == GroupWord(-1, (Syllable("U", 2),))
    assert conj == GroupWord(1, (Syllable("S", 1),))
    red, conj = cyclic_reduce(W("S * U"), 2, 3)
    assert red == W("S * U") and conj == IDENTITY


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_cyclic_reduce_is_conjugation(seed):
    rng = random.Random(seed)
    p, q = rng.choice([(2, 3), (3, 5), (4, 5)])
    sylls = []
    gen = rng.choice("SU")
    for _ in range(rng.randint(0, 8)):
        order = p if gen == "S" else q
        sylls.append(Syllable(gen, rng.randint(-order, order) or 1))
        gen = "U" if gen == "S" else "S"
    w = GroupWord(rng.choice((1, -1)), tuple(sylls))
    red, conj = cyclic_reduce(w, p, q)
    back = multiply(multiply(conj, red, p, q), conj.inverse(), p, q)
    assert back == normal_form(w, p, q)
    # reduced words have distinct end generators (or at most one syllable)
    if len(red) >= 2:
        assert red.syllables[0].gen != red.syllables[-1].gen
    # idempotence
    red2, conj2 = cyclic_reduce(red, p, q)
    assert red2 == red and conj2 == IDENTITY


def _cyclic_reduce_by_conjugation(w, p, q):
    """The quadratic reference: conjugate by the first syllable while the ends share a generator."""
    cur = normal_form(w, p, q)
    conj = IDENTITY
    while len(cur) >= 2 and cur.syllables[0].gen == cur.syllables[-1].gen:
        s = GroupWord(1, (cur.syllables[0],))
        conj = multiply(conj, s, p, q)
        cur = multiply(multiply(s.inverse(), cur, p, q), s, p, q)
    return cur, conj


def _alternating(p, q, rng, n, first=None):
    gen, sylls = first or rng.choice("SU"), []
    for _ in range(n):
        sylls.append(Syllable(gen, rng.randint(1, (p if gen == "S" else q) - 1)))
        gen = "U" if gen == "S" else "S"
    return GroupWord(rng.choice((1, -1)), tuple(sylls))


@pytest.mark.parametrize("p,q", PQ_LIST)
def test_cyclic_reduce_matches_conjugation_loop(p, q):
    rng = random.Random(4000 + 10 * p + q)
    us, cusp_inv = (Syllable("U", 1), Syllable("S", 1)), (Syllable("S", p - 1), Syllable("U", q - 1))
    ws = [GroupWord(1, ()), GroupWord(-1, ())]
    ws += [GroupWord(s, (Syllable(g, e),)) for s in (1, -1) for g, n in (("S", p), ("U", q)) for e in range(1, n)]
    ws += [GroupWord(s, unit * k) for s in (1, -1) for unit in (us, cusp_inv) for k in (1, 2, 5)]
    for _ in range(150):
        ws.append(_alternating(p, q, rng, rng.randint(1, 14)))
        # unnormalized: repeated generators and exponents past the order
        raw = [Syllable(rng.choice("SU"), rng.randint(-2 * q, 2 * q) or 1) for _ in range(rng.randint(1, 8))]
        ws.append(GroupWord(rng.choice((1, -1)), tuple(raw)))
    # conjugates of all of the above, including of +-I, elliptic and cusp words
    for w in list(ws):
        g = _alternating(p, q, rng, rng.randint(1, 8))
        ws.append(g.concat(w).concat(g.inverse()))
    for w in ws:
        assert cyclic_reduce(w, p, q) == _cyclic_reduce_by_conjugation(w, p, q), w


def test_cyclic_reduce_is_linear():
    # g w g^-1 with w = S...S and g = S...U does not cancel: 801 syllables
    rng = random.Random(800)
    w = _alternating(2, 3, rng, 701, first="S")
    g = _alternating(2, 3, rng, 50, first="S")
    conj = normal_form(g.concat(w).concat(g.inverse()), 2, 3)
    assert len(conj) == 801
    best = float("inf")
    for _ in range(3):
        t0 = time.process_time()
        red, h = cyclic_reduce(conj, 2, 3)
        best = min(best, time.process_time() - t0)
    assert multiply(multiply(h, red, 2, 3), h.inverse(), 2, 3) == conj
    assert best < 0.005, best


def test_minimal_period():
    s = (Syllable("S", 1), Syllable("U", 1))
    assert minimal_period(s * 3) == 2
    assert minimal_period(s) == 2
    assert minimal_period((Syllable("S", 1), Syllable("U", 1), Syllable("S", 1), Syllable("U", 2))) == 4


def test_parse_basic():
    assert W("I") == IDENTITY
    assert W("-I") == GroupWord(-1, ())
    assert W("S") == GroupWord(1, (Syllable("S", 1),))
    assert W("- S^3 * U^-2") == GroupWord(-1, (Syllable("S", 3), Syllable("U", -2)))
    assert W("  U ^ 2  *  S ") == GroupWord(1, (Syllable("U", 2), Syllable("S", 1)))


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as e:
        W("S * * U")
    assert e.value.offset == 4  # position of the second '*'
    with pytest.raises(ParseError):
        W("S^0")
    with pytest.raises(ParseError):
        W("")
    with pytest.raises(ParseError):
        W("S U")  # missing '*'
    with pytest.raises(ParseError):
        W("X^2")


def test_render_round_trip():
    for text in ["I", "-I", "S", "- S^3 * U^-2 * S", "U^2 * S * U"]:
        w = W(text)
        assert W(render_word(w)) == w


def test_render_style():
    assert render_word(GroupWord(-1, (Syllable("S", 2), Syllable("U", 1)))) == "- S^2 * U"
    assert render_word(IDENTITY) == "I"
