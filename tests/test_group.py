"""Matrices, classification, lifts and matrix recognition."""

import decimal
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FLOAT_PQ, PQ_LIST, random_element, value60
from trirad import group, words
from trirad.errors import DomainError, NotInGroupError, NumericError
from trirad.exactnum import get_field, sign
from trirad.group import (
    Element,
    LiftedElement,
    Matrix2,
    _GAMMA2,
    _decided_sign,
    _fmul,
    asai_sign,
    asai_signs,
    cocycle_W_el,
    get_params,
    is_cusp_word,
    is_primitive,
    lift_inverse,
    lift_multiply,
    matrix_to_word,
    primitive_root,
    w_from_signs,
    word_to_fmat,
    word_to_matrix,
)
from trirad.linking import lk_s3
from trirad.symbols import ghys_coding_23, modified_Psi_e
from trirad.words import GroupWord, Syllable, normal_form, parse_word


def el(params, text):
    return Element(params, parse_word(text))


def test_generator_matrices_23(P23):
    S, U, T = P23.S, P23.U, P23.T
    f = P23.field
    assert S.entries() == (f.zero, -f.one, f.one, f.zero)
    assert U.entries() == (f.one, -f.one, f.one, f.zero)
    assert T.entries() == (f.one, f.one, f.zero, f.one)
    assert P23.lam == 1
    assert P23.r == 1


def test_lambda_is_golden_at_25(P25):
    f = P25.field
    # lambda = 0 + 2cos(pi/5), a root of x^2 - x - 1
    assert P25.lam == f.beta
    assert P25.lam * P25.lam == P25.lam + 1


@pytest.mark.parametrize("p,q", PQ_LIST)
def test_generator_orders(p, q):
    params = get_params(p, q)
    minus_one = -params.identity_matrix
    sp = params.identity_matrix
    for _ in range(p):
        sp = sp * params.S
    assert sp == minus_one
    uq = params.identity_matrix
    for _ in range(q):
        uq = uq * params.U
    assert uq == minus_one
    assert params.T == -(params.U * params.S)
    assert params.T.entries()[3] == params.field.one
    assert params.T.entries()[1] == params.lam


@pytest.mark.parametrize("p,q", [(2, 3), (3, 5), (4, 5), (7, 11), (31, 37)])
def test_syllable_powers_match_repeated_multiplication(p, q):
    params = get_params(p, q)
    m = params.identity_matrix
    for n in range(1, p):
        m = m * params.S
        assert params.syllable_matrix("S", n) == m
    m = params.identity_matrix
    for n in range(1, q):
        m = m * params.U
        assert params.syllable_matrix("U", n) == m


def test_syllable_powers_come_from_one_chebyshev_table():
    # GroupParams steps the recurrence once per generator, not once per entry
    assert "chebyshev_C_2x" not in vars(group)


@pytest.mark.parametrize("p,q", FLOAT_PQ)
def test_syllable_shadows_hold_their_bounds(p, q):
    # every entry's float is within its stated bound of the 60-digit value
    params = get_params(p, q)
    for gen, n in (("S", p), ("U", q)):
        for e in range(1, n):
            vals, errs, k = params.syllable_fmat(gen, e)
            assert k == 0
            for x, v, err in zip(params.syllable_matrix(gen, e).entries(), vals, errs):
                with decimal.localcontext(prec=80):
                    assert abs(decimal.Decimal(v) - value60(x)) <= decimal.Decimal(err), (gen, e, v, err)


def test_element_determinants(P34, rng):
    for _ in range(20):
        x = random_element(P34, rng)
        assert x.matrix.det() == P34.field.one
        assert x.matrix.inverse() == x.inverse().matrix


def test_translation_word():
    for p, q in PQ_LIST:
        P = get_params(p, q)
        assert Element.translation(P).word == GroupWord(-1, (Syllable("U", 1), Syllable("S", 1)))
        assert Element.translation(P, 0).matrix == P.identity_matrix
        for step, direction in ((P.T, 1), (P.T.inverse(), -1)):
            power = P.identity_matrix
            for k in range(1, 151):
                power = power * step
                if k <= 5 or k == 150:
                    t = Element.translation(P, direction * k)
                    assert t.matrix == power
                    assert t.word == normal_form(t.word, p, q)


def test_classify_examples(P23, P25):
    assert Element.identity(P23).classify() == "central"
    assert (-Element.identity(P23)).classify() == "central"
    assert el(P23, "S").classify() == "elliptic"
    assert el(P25, "U^2").classify() == "elliptic"
    assert Element.translation(P23).classify() == "parabolic"
    assert el(P23, "U^2 * S").classify() == "parabolic"  # -T^-1
    assert el(P23, "U * S * U^2 * S * U * S").classify() == "hyperbolic"
    assert el(P23, "U * S * U^2 * S").classify() == "hyperbolic"


def _exact_class(x):
    m = x.matrix
    if m.b.is_zero() and m.c.is_zero() and m.a == m.d:
        return "central"
    return {1: "hyperbolic", -1: "elliptic", 0: "parabolic"}[sign(m.trace * m.trace - 4).value]


def test_classify_is_conjugation_invariant(rng):
    # the word-level classification against sign(tr^2 - 4), on random conjugates
    # of random elements, +-T^k, S^a and U^b, and on every word of 2 or 4 syllables
    for p, q in PQ_LIST:
        params = get_params(p, q)
        xs = [random_element(params, rng) for _ in range(8)]
        ts = [Element.translation(params, k) for k in (-3, -1, 1, 2)]
        xs += ts + [-t for t in ts]
        xs += [Element.generator(params, "S", a) for a in range(1, p)]
        xs += [Element.generator(params, "U", b) for b in range(1, q)]
        for x in xs:
            g = random_element(params, rng)
            assert x.conjugate(g).classify() == x.classify() == _exact_class(x.conjugate(g)), (x, g)
        for w in _all_words(params, 2) + _all_words(params, 4):
            x = Element(params, w, _normalized=True)
            assert x.classify() == _exact_class(x), x


def _partial_products(params, word, from_right):
    """(syllables, exact product, float shadow) of each prefix (with the central
    sign) or each suffix (without it), shortest first."""
    sylls = word.syllables
    sign_ = 1 if from_right else word.sign
    exact = params.identity_matrix if sign_ > 0 else -params.identity_matrix
    fm, _ = word_to_fmat(GroupWord(sign_), params)
    for m in range(1, len(sylls) + 1):
        g = sylls[-m] if from_right else sylls[m - 1]
        if from_right:
            exact, fm = params.syllable_matrix(*g) * exact, _fmul(params.syllable_fmat(*g), fm)
        else:
            exact, fm = exact * params.syllable_matrix(*g), _fmul(fm, params.syllable_fmat(*g))
        yield (sylls[-m:] if from_right else sylls[:m]), exact, fm


def _all_words(params, k):
    """Every normal-form word of k syllables, with sign +1."""
    out = [()]
    for i in range(k):
        out = [
            w + (Syllable(g, e),)
            for w in out
            for g in ("SU" if i == 0 else ("U" if w[-1].gen == "S" else "S"))
            for e in range(1, params.p if g == "S" else params.q)
        ]
    return [GroupWord(1, w) for w in out]


@pytest.mark.parametrize("p,q", PQ_LIST)
def test_cusp_tier_matches_exact_arithmetic(p, q, rng, monkeypatch):
    # c = 0 exactly on the cusp words; Element.asai on every prefix and the
    # suffix fold's signs are the exact Asai signs, also when the float tier
    # leaves every third step open and the exact suffix must catch up
    params = get_params(p, q)
    ws = _all_words(params, 4) + [random_element(params, rng, max_syllables=12).word for _ in range(20)]
    for w in ws:
        for sgn in (1, -1):
            w = GroupWord(sgn, w.syllables)
            for sylls, exact, _ in _partial_products(params, w, from_right=False):
                assert is_cusp_word(sylls, p, q) == exact.c.is_zero(), sylls
                x = Element(params, GroupWord(sgn, sylls), _normalized=True)
                assert x.asai() == asai_sign(exact), x
            suffixes = list(_partial_products(params, w, from_right=True))
            for sylls, exact, _ in suffixes:
                assert is_cusp_word(sylls, p, q) == exact.c.is_zero(), sylls
            expected = [asai_sign(m) for _, m, _ in suffixes]
            assert list(asai_signs(params, w)) == expected, w
            steps = iter(range(10**6))

            def every_third_open(x, err):
                return None if next(steps) % 3 == 2 else _decided_sign(x, err)

            with monkeypatch.context() as mp:
                mp.setattr(group, "_decided_sign", every_third_open)
                assert list(asai_signs(params, w)) == expected, w


def _cusp_biased_word(params, rng, n):
    """A normal-form word of n syllables, sign +1, where about half the exponents
    continue a run of (U S)^k or (S^(p-1) U^(q-1))^k, chosen once per word."""
    low = rng.random() < 0.5  # the run of U S, else of S^(p-1) U^(q-1)
    gen, sylls = rng.choice("SU"), []
    for _ in range(n):
        order = params.p if gen == "S" else params.q
        e = (1 if low else order - 1) if rng.random() < 0.5 else rng.randint(1, order - 1)
        sylls.append(Syllable(gen, e))
        gen = "U" if gen == "S" else "S"
    return GroupWord(1, tuple(sylls))


@pytest.mark.parametrize("p,q", PQ_LIST)
def test_word_sign_rules_match_exact_arithmetic(p, q, rng):
    # Element.asai and trace_sign read off the word, against exact asai_sign and
    # the exact sign of the trace on every prefix, with both central signs
    params = get_params(p, q)
    ws = [random_element(params, rng, 40).word for _ in range(12)]
    ws += [_cusp_biased_word(params, rng, rng.randint(1, 40)) for _ in range(12)]
    ws += [random_element(params, rng, 400, min_syllables=100).word, _cusp_biased_word(params, rng, 400)]
    ws += [Element.translation(params, k).word for k in range(-12, 13)]
    conj = [Element(params, w).conjugate(random_element(params, rng, 8)).word for w in ws[:4] + ws[-3:]]
    halves = [Element.generator(params, g, n // 2) for g, n in (("S", p), ("U", q)) if n % 2 == 0]
    conj += [h.conjugate(random_element(params, rng, 8)).word for h in halves for _ in range(3)]
    for sgn in (1, -1):
        x = Element(params, GroupWord(sgn), _normalized=True)
        assert x.asai() == x.trace_sign() == sgn  # +-I
    for w in ws + conj:
        for sgn in (1, -1):
            w = GroupWord(sgn, w.syllables)
            for sylls, exact, _ in _partial_products(params, w, from_right=False):
                x = Element(params, GroupWord(sgn, sylls), _normalized=True)
                assert x.asai() == asai_sign(exact), x
                assert x.trace_sign() == sign(exact.trace).value, x
    # the conjugates of S^(p/2) and U^(q/2) have trace 0
    assert all(Element(params, w).trace_sign() == 0 for w in conj[7:]) and len(conj) > 7 * bool(halves)


@pytest.mark.parametrize("p,q", PQ_LIST)
def test_word_sign_rules_take_no_arithmetic(p, q, rng, monkeypatch):
    # no sign, no Asai sign of a matrix, no shadow and no exact matrix, also
    # on 1,300 syllables; then the answers are checked against the shadow's
    # signs (which decide them at that length) and, on short words, exact ones
    from trirad.analytic import _check_hyperbolic_rep
    from trirad.symbols import dedekind_Phi

    params = get_params(p, q)
    xs = [random_element(params, rng, 1300, min_syllables=1300), _cusp_biased_word(params, rng, 1300)]
    xs = [x if isinstance(x, Element) else Element(params, x) for x in xs]
    xs += [random_element(params, rng, 12) for _ in range(6)]
    xs += [Element.translation(params, k) for k in (1, -1, 7)] + [Element.identity(params)]
    xs += [x.conjugate(random_element(params, rng, 6)) for x in xs[2:5]]
    xs += [-x for x in xs]  # the second half: -x has the opposite signs

    def forbidden(*args):
        raise AssertionError("arithmetic taken")

    with monkeypatch.context() as mp:
        for name in ("sign", "asai_sign", "word_to_fmat", "word_to_matrix"):
            mp.setattr(group, name, forbidden)
        got = [(x.asai(), x.trace_sign()) for x in xs]
        for x, y in zip(xs, xs[1:]):
            cocycle_W_el(x, y)
            dedekind_Phi(x)
            if x.classify() in ("hyperbolic", "parabolic"):
                rho, _ = primitive_root(x)
                if rho.classify() == "hyperbolic":
                    _check_hyperbolic_rep(rho, "test")
    half = len(xs) // 2
    for x, (s, t), neg in zip(xs, got, got[half:]):
        assert (s, t) == (-neg[0], -neg[1]), x
        if len(x.word) > 100:
            t4, err, _ = x.fmat
            assert (s, t) == (_decided_sign(t4[2], err[2]), _decided_sign(t4[0] + t4[3], err[0] + err[3])), x
        else:
            assert (s, t) == (asai_sign(x.matrix), sign(x.matrix.trace).value), x


# about the length from which a random word's float shadow, unscaled, would pass
# 1e308 (within 4 % on 20 random words per pair)
_FIRST_OVERFLOW = {(2, 3): 3626, (2, 5): 1726, (2, 7): 1258, (3, 4): 1387, (3, 5): 1161, (4, 5): 958, (5, 7): 730}


def _long_words(params, rng):
    """Random words of 60-600 syllables and of 170 more than _FIRST_OVERFLOW, and
    (U S)^k or (S^(p-1) U^(q-1))^k runs plus one syllable."""
    p, q = params.p, params.q
    lengths = (60, 200, 600, _FIRST_OVERFLOW[p, q] + 170)
    out = [random_element(params, rng, n, min_syllables=n).word for n in lengths]
    for cusp in ((Syllable("U", 1), Syllable("S", 1)), (Syllable("S", p - 1), Syllable("U", q - 1))):
        gen = cusp[0].gen
        out += [GroupWord(1, cusp * 150 + (Syllable(gen, e),)) for e in range(1, p if gen == "S" else q)]
    return out


@pytest.mark.parametrize("p,q", PQ_LIST)
def test_float_decided_signs_match_exact(p, q, rng):
    # the per-entry error bound of the float shadow, on long and adversarial
    # words, and past the float range, where the shadow is rescaled
    from trirad.analytic import enumerate_classes_by_trace

    params = get_params(p, q)
    ws = _long_words(params, rng)
    if (p, q) == (2, 3):
        ws += [e.word for e in enumerate_classes_by_trace(params, 40).entries]
    for w in ws:
        for from_right in (False, True):
            for sylls, exact, (t4, err, k) in _partial_products(params, w, from_right):
                s = _decided_sign(t4[2], err[2])
                if s is None:
                    # at these lengths the shadow never leaves a nonzero c open
                    assert is_cusp_word(sylls, p, q), sylls
                else:
                    assert s == sign(exact.c).value, sylls
                s = _decided_sign(t4[0] + t4[3], err[0] + err[3])
                assert s is None or s == sign(exact.trace).value, sylls
            if len(w.syllables) > _FIRST_OVERFLOW[p, q]:
                # the exact entries are past the float range
                assert k + math.frexp(max(map(abs, t4)))[1] > 1024, w


def _count_calls(monkeypatch, owner, name, refuse=False):
    """Count the calls of owner.name made through any binding of it in owner or
    in a loaded trirad module; returns the one-element counter.  With refuse,
    every such call raises AssertionError instead."""
    orig, count = getattr(owner, name), [0]

    def counted(*args):
        count[0] += 1
        if refuse:
            raise AssertionError(f"{name} called")
        return orig(*args)

    mods = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "trirad"]
    for ns in mods + [owner]:
        for key in [k for k, v in vars(ns).items() if v is orig]:
            monkeypatch.setattr(ns, key, counted)
    return count


@pytest.mark.parametrize("psi_first", [True, False])
def test_each_element_folds_its_shadow_once(psi_first, rng, monkeypatch):
    # psi and float_trace share one left fold of the shadow, and asai and
    # trace_sign take none, in either call order, also when psi takes its
    # signs from exact arithmetic
    from trirad.symbols import psi

    els = [random_element(get_params(p, q), rng, 40) for p, q in PQ_LIST]
    els.append(el(get_params(2, 3), "U * S * U^2 * S * U"))  # cusp prefix U S
    for x in els:
        count = _count_calls(monkeypatch, group, "_fmul")
        if psi_first:
            psi(x)
        x.float_trace(), x.asai(), x.trace_sign()
        psi(x)
        assert count[0] == len(x.word.syllables), x
        monkeypatch.undo()


def test_class_rows_fold_each_syllable_once(P23, monkeypatch):
    # trace-bounded rows come from the walk alone: no Element and no shadow;
    # syllable-bounded rows fold each hyperbolic class's shadow once, and read
    # hyperbolicity off the Lyndon word, with no classification or cyclic reduction
    from trirad.analytic import enumerate_classes, enumerate_classes_by_trace

    count = _count_calls(monkeypatch, group, "_fmul")
    made = _count_calls(monkeypatch, Element, "__init__")
    table = enumerate_classes_by_trace(P23, 12)
    assert len(table.entries) == 29 and count[0] == made[0] == 0
    monkeypatch.undo()  # the Element counter takes no keyword arguments
    count = _count_calls(monkeypatch, group, "_fmul")
    _count_calls(monkeypatch, Element, "classify", refuse=True)
    _count_calls(monkeypatch, words, "cyclic_reduce", refuse=True)
    for p, q, n in ((2, 3, 12), (2, 5, 6), (2, 7, 6), (3, 4, 6), (3, 5, 4), (4, 5, 4), (5, 7, 4)):
        count[0] = 0
        table = enumerate_classes(get_params(p, q), n)
        assert count[0] == sum(len(e.word.syllables) for e in table.entries) > 0


def test_psi_leaves_the_exact_matrix_behind(P23, monkeypatch):
    # a cusp prefix sends psi to exact prefix products; the last is the matrix
    from trirad.symbols import psi

    x = el(P23, "U * S * U^2 * S * U")
    psi(x)
    count = _count_calls(monkeypatch, Matrix2, "__mul__")
    m = x.matrix
    assert count[0] == 0
    monkeypatch.undo()
    assert m == word_to_matrix(x.word, P23)


def test_prefix_signs_are_the_exact_prefix_signs(rng):
    for p, q in PQ_LIST:
        params = get_params(p, q)
        for _ in range(20):
            w = random_element(params, rng, 12).word
            x = Element(params, w, _normalized=True)
            expected = [asai_sign(m) for _, m, _ in _partial_products(params, w, from_right=False)]
            assert x.prefix_signs() == expected, x


def test_only_group_touches_the_shadow_internals():
    # the shadow fold and its helpers stay private to trirad.group
    import ast
    from pathlib import Path

    src = Path(group.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "group.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "trirad.group":
                assert not [a.name for a in node.names if a.name.startswith("_")], path.name
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("fmat", "_fmat", "_prefix"), path.name


def _scaled(shadow, n):
    """The shadow times 2^n, entries and bounds."""
    vals, errs, k = shadow
    return tuple(math.ldexp(x, n) for x in vals), tuple(math.ldexp(e, n) for e in errs), k


def test_fmul_rescale_is_an_exact_power_of_two(rng):
    # shadows with entries near 2^300: the product passes _RESCALE_AT, and comes
    # out as exactly 2^-k times the product of the same shadows scaled by 2^-300
    for _ in range(20):
        A = (tuple(math.ldexp(rng.uniform(-1, 1), 300) for _ in range(4)), (2.0**250,) * 4, 0)
        B = (tuple(math.ldexp(rng.uniform(-1, 1), 300) for _ in range(4)), (2.0**248,) * 4, 3)
        out, err, k = _fmul(A, B)
        small_out, small_err, small_k = _fmul(_scaled(A, -300), _scaled(B, -300))
        assert small_k == 3 and k > 3 and 0.5 <= max(map(abs, out)) < 1
        scale = Fraction(2) ** (600 + 3 - k)
        assert [Fraction(x) for x in out] == [Fraction(x) * scale for x in small_out]
        assert [Fraction(e) for e in err] == [Fraction(e) * scale for e in small_err]
    # below the threshold the product is the plain float product
    A = ((2.0**200, 1.0, 3.0, 2.0**-200), (0.0,) * 4, 0)
    out, _, k = _fmul(A, A)
    assert k == 0 and out == (2.0**400 + 3.0, 2.0**200 + 2.0**-200, 3 * 2.0**200 + 3 * 2.0**-200, 3.0 + 2.0**-400)


def test_fmul_pad_covers_an_entry_scaled_into_the_subnormals():
    # d = (1 + 2^-52) 2^-460 is exact; scaled by 2^-602 it needs bits below
    # 2^-1074 and is rounded, and its bound (gamma_2 d 2^-602) underflows to 0
    d1, d2 = 1 + 2.0**-52, 2.0**-460
    A = ((2.0**300, 0.0, 0.0, d1), (0.0,) * 4, 0)
    B = ((2.0**301, 0.0, 0.0, d2), (0.0,) * 4, 0)
    out, err, k = _fmul(A, B)
    assert k == 602 and out[0] == 0.5
    exact_d = Fraction(d1) * Fraction(d2) / Fraction(2) ** k
    assert Fraction(out[3]) != exact_d and math.ldexp(_GAMMA2 * d1 * d2, -k) == 0.0
    for x, e, want in zip(out, err, (Fraction(2) ** 601 / Fraction(2) ** k, 0, 0, exact_d)):
        assert abs(Fraction(x) - want) <= Fraction(e)


def test_float_trace_undoes_the_rescale(P23, rng):
    # (2,3) shadows are rescaled from about 1,800 syllables; the trace passes the
    # float range near 3,600
    short = random_element(P23, rng, 40, min_syllables=40)
    t4, _, k = short.fmat
    assert k == 0 and short.float_trace() == t4[0] + t4[3]
    x = random_element(P23, rng, 2500, min_syllables=2500)
    assert x.fmat[2] > 0
    exact = float(x.matrix.trace)
    assert abs(x.float_trace() - exact) <= 1e-12 * abs(exact)
    y = random_element(P23, rng, 4000, min_syllables=4000)
    with pytest.raises(NumericError):
        y.float_trace()


def test_asai_examples(P23):
    assert el(P23, "S").asai() == 1  # c = 1
    assert Element.identity(P23).asai() == 1  # c = 0, a = 1
    assert (-Element.identity(P23)).asai() == -1
    assert Element.translation(P23).asai() == 1
    x = el(P23, "U * S * U^2 * S")
    assert asai_sign(x.matrix) == x.asai() == 1


def test_w_table():
    assert w_from_signs(1, 1, -1) == 1
    assert w_from_signs(-1, -1, 1) == -1
    for s in [(1, 1, 1), (1, -1, 1), (1, -1, -1), (-1, 1, 1), (-1, -1, -1)]:
        assert w_from_signs(*s) == 0


def test_cocycle_values(P23):
    one = Element.identity(P23)
    s = el(P23, "S")
    assert cocycle_W_el(one, s) == 0
    assert cocycle_W_el(s, one) == 0
    assert cocycle_W_el(-one, -one) == -1
    assert cocycle_W_el(s, s) == 1  # S^2 = -I, signs (+,+,-)
    assert cocycle_W_el(s, s, s * s) == 1  # the product passed in


@pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (5, 7)])
def test_cocycle_identity(p, q, rng):
    # W(x,y) + W(xy,z) = W(y,z) + W(x,yz)
    params = get_params(p, q)
    for _ in range(40):
        x, y, z = (random_element(params, rng) for _ in range(3))
        assert cocycle_W_el(x, y) + cocycle_W_el(x * y, z) == cocycle_W_el(y, z) + cocycle_W_el(
            x, y * z
        )


@pytest.mark.parametrize("p,q", [(2, 3), (3, 5)])
def test_lift_relations(p, q):
    params = get_params(p, q)
    s_lift = LiftedElement(Element.generator(params, "S"), 0)
    acc = LiftedElement(Element.identity(params), 0)
    for _ in range(p):
        acc = lift_multiply(acc, s_lift)
    # S~^p = (-I, 1): the central extension remembers the full turn
    assert acc.el.word == GroupWord(-1, ())
    assert acc.level == 1
    sq = lift_multiply(acc, acc)
    assert sq.el.word == GroupWord(1, ())
    assert sq.level == 1
    t = LiftedElement(Element.translation(params), 0)
    ti = lift_inverse(t)
    assert ti.el == Element.translation(params, -1)
    assert ti.level == 0
    assert lift_inverse(acc).level == 0  # (-I,1)^-1 = (-I,0)


def test_lift_associativity(P34, rng):
    for _ in range(30):
        xs = [LiftedElement(random_element(P34, rng), rng.randint(-2, 2)) for _ in range(3)]
        a = lift_multiply(lift_multiply(xs[0], xs[1]), xs[2])
        b = lift_multiply(xs[0], lift_multiply(xs[1], xs[2]))
        assert a == b
        inv = lift_inverse(xs[0])
        unit = lift_multiply(xs[0], inv)
        assert unit.el == Element.identity(P34) and unit.level == 0


def test_is_primitive(P23):
    x = el(P23, "U * S * U^2 * S")
    assert is_primitive(x)
    assert not is_primitive(x * x)
    assert is_primitive(Element.translation(P23))
    assert not is_primitive(Element.translation(P23, 2))
    with pytest.raises(DomainError):
        is_primitive(el(P23, "S"))
    with pytest.raises(DomainError):
        is_primitive(Element.identity(P23))


def test_primitive_root_examples(P23):
    x = el(P23, "U * S * U^2 * S")
    rho, nu = primitive_root(x**3)
    assert nu == 3
    assert (rho**3).matrix == (x**3).matrix
    rho, nu = primitive_root(x.inverse())
    assert nu == -1
    assert rho.trace_sign() > 0 and rho.asai() > 0
    # parabolic roots are conjugates of T, never of T^-1
    g = el(P23, "S * U")
    par = Element.translation(P23, -4).conjugate(g)
    rho, nu = primitive_root(par)
    assert nu == -4
    assert (rho**-4).matrix == par.matrix


def test_primitive_root_of_negative(P25):
    x = el(P25, "U * S * U^3 * S^1")
    rho, nu = primitive_root(-(x**2))
    assert abs(nu) == 2
    assert rho.trace_sign() > 0


def _pow_by_multiplication(x, n):
    """x^n as |n| successive products: the reference for `Element.__pow__`."""
    base = x if n >= 0 else x.inverse()
    out = Element.identity(x.params)
    for _ in range(abs(n)):
        out = out * base
    return out


@pytest.mark.parametrize("p,q", PQ_LIST)
def test_power_matches_repeated_multiplication(p, q, rng):
    params = get_params(p, q)
    S, U = Element.generator(params, "S"), Element.generator(params, "U")
    xs = [random_element(params, rng, 8) for _ in range(6)]
    xs += [x.conjugate(random_element(params, rng, 5)) for x in xs[:4]]
    xs += [Element.generator(params, "S", p - 1), U.conjugate(S * U), Element.translation(params, -2).conjugate(S)]
    xs += [Element.identity(params), -Element.identity(params), Element.translation(params, 1)]
    classes = {x.classify() for x in xs}
    assert classes == {"central", "elliptic", "parabolic", "hyperbolic"}, classes
    for x in xs + [-x for x in xs]:
        for n in range(-25, 26):
            assert (x**n).word == _pow_by_multiplication(x, n).word, (x, n)


def test_cyclic_reduction_is_computed_once_per_element(P23, monkeypatch):
    reduced = []
    real = group.cyclic_reduce
    monkeypatch.setattr(group, "cyclic_reduce", lambda w, p, q: reduced.append(w) or real(w, p, q))
    x = el(P23, "U * S * U * S * U^2 * S * U")  # U (S U S U^2 S U^2) U^-1
    x.classify(), x.trace_sign(), is_primitive(x), primitive_root(x), ghys_coding_23(x)
    e = el(P23, "U * S * U^2")  # a conjugate of S: trace 0, read off the reduced word
    e.classify(), e.trace_sign(), modified_Psi_e(e), lk_s3(e)
    assert reduced.count(x.word) == 1 and reduced.count(e.word) == 1


def _random_hyperbolic(params, rng, max_syllables=8):
    while True:
        x = random_element(params, rng, max_syllables, min_syllables=2)
        if x.classify() == "hyperbolic":
            return x


@pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (5, 7)])
def test_primitive_root_carries_a_valid_cyclic_reduction(p, q, rng):
    # the root's cached reduction (x's period and conjugator) is a reduction of the root
    from trirad.words import IDENTITY, cyclic_reduce

    params = get_params(p, q)
    xs = [_random_hyperbolic(params, rng).conjugate(random_element(params, rng)) ** k for k in (1, 3, -2)]
    xs += [Element.translation(params, k).conjugate(random_element(params, rng)) for k in (1, -2, 3)]
    for x in xs + [-x for x in xs]:
        rho, _ = primitive_root(x)
        core, g = rho.cyclic_reduce()
        assert Element(params, g.concat(core).concat(g.inverse())) == rho, x
        assert cyclic_reduce(core, p, q) == (core, IDENTITY), x


@pytest.mark.parametrize("p,q", PQ_LIST)
def test_primitive_root_orientation_matches_exact_matrix(p, q, rng):
    # the orientation read off the word against the exact matrix: tr > 0, and
    # c > 0 (hyperbolic) or c < 0, else c = 0 and b > 0 (parabolic: a conjugate of T)
    params = get_params(p, q)
    xs = [_random_hyperbolic(params, rng) ** k for k in (1, 2, -1, -3)]
    xs += [Element.translation(params, k).conjugate(random_element(params, rng)) for k in (1, -1, 3, -2)]
    xs += [Element.translation(params, k) for k in (1, -1, 2)]
    for x in xs + [-x for x in xs]:
        rho, nu = primitive_root(x)
        m = rho.matrix
        assert is_primitive(rho) and sign(m.trace).value > 0, x
        if x.classify() == "hyperbolic":
            assert sign(m.c).value > 0, x
        else:
            assert sign(m.c).value < 0 or (m.c.is_zero() and sign(m.b).value > 0), x
        assert (rho**nu).matrix in (x.matrix, -x.matrix), x


@pytest.mark.parametrize("p,q", [(2, 5), (2, 7), (3, 4), (4, 5)])
def test_trace_zero_read_off_the_word(p, q, rng):
    # tr = 0 exactly on the conjugates of S^(p/2) and U^(q/2); no exact matrix is built
    params = get_params(p, q)
    halves = [Element.generator(params, g, n // 2) for g, n in (("S", p), ("U", q)) if n % 2 == 0]
    for h in halves:
        for _ in range(6):
            x = h.conjugate(random_element(params, rng, max_syllables=12))
            for y in (x, -x):
                assert y.trace_sign() == 0 and y._matrix is None, y
                assert y.matrix.trace.is_zero()


@pytest.mark.parametrize("p,q", PQ_LIST)
def test_matrix_round_trip(p, q, rng):
    params = get_params(p, q)
    xs = [random_element(params, rng, max_syllables=n) for n in (10, 10, 40)]
    xs += [random_element(params, rng, 200, min_syllables=200), Element.identity(params)]
    xs += [Element.translation(params, k) for k in (1, -1, 2, -5, 150, -150)]
    for x in xs + [-x for x in xs]:
        assert matrix_to_word(x.matrix, params) == x.word


def test_matrix_to_word_rejects_det(P23):
    f = P23.field
    m = Matrix2(f.one, f.zero, f.zero, f.from_rational(2))
    with pytest.raises(NotInGroupError):
        matrix_to_word(m, P23)


def test_matrix_to_word_rejects_non_member(P23, P25, rng):
    # an integer translation has det 1 but is not in Gamma_{2,5}
    f = P25.field
    ms = [(P25, Matrix2(f.one, f.one, f.zero, f.one))]
    # det 1 with non-integer rational entries: not in SL2(Z)
    entries = (Fraction(3, 2), Fraction(1, 2), Fraction(1, 2), Fraction(5, 6))
    ms.append((P23, Matrix2(*(P23.field.from_rational(x) for x in entries))))
    for p, q in [(2, 3), (2, 5), (3, 4), (5, 7)]:
        params = get_params(p, q)
        f = params.field
        shear = Matrix2(f.one, f.from_rational(Fraction(1, 7)), f.zero, f.one)
        ms += [(params, random_element(params, rng, max_syllables=20).matrix * shear) for _ in range(3)]
    for params, m in ms:
        with pytest.raises(NotInGroupError):
            matrix_to_word(m, params)


def test_matrix_to_word_rejects_foreign_field(P23):
    f = get_field(2, 5)
    m = Matrix2(f.one, f.zero, f.zero, f.one)
    with pytest.raises(DomainError):
        matrix_to_word(m, P23)


def test_params_validation():
    with pytest.raises(DomainError):
        get_params(2, 4)
    with pytest.raises(DomainError):
        get_params(1, 3)
    with pytest.raises(DomainError):
        Element.identity(get_params(2, 3)) * Element.identity(get_params(2, 5))


words_strategy = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=50, deadline=None)
@given(words_strategy)
def test_word_matrix_homomorphism(seed):
    rng = random.Random(seed)
    p, q = rng.choice([(2, 3), (3, 5), (5, 7)])
    params = get_params(p, q)
    x = random_element(params, rng)
    y = random_element(params, rng)
    assert (x * y).matrix == x.matrix * y.matrix
    assert x.inverse().matrix == x.matrix.inverse()
    assert word_to_matrix(x.word, params) == x.matrix


@pytest.mark.parametrize("p,q", PQ_LIST)
def test_negation_carries_the_cyclic_reduction(p, q, rng, monkeypatch):
    params = get_params(p, q)
    S, U = Element.generator(params, "S"), Element.generator(params, "U")
    xs = [random_element(params, rng, 8) for _ in range(8)]
    xs += [x.conjugate(random_element(params, rng, 5)) for x in xs[:4]]
    xs += [Element.generator(params, "S", p - 1), U.conjugate(S * U), Element.generator(params, "U", q - 1)]
    xs += [Element.translation(params, k).conjugate(S) for k in (1, -2, 3)] + [Element.translation(params, -1)]
    xs += [Element.identity(params), -Element.identity(params)]
    assert {x.classify() for x in xs} == {"central", "elliptic", "parabolic", "hyperbolic"}
    reduced = []
    real = group.cyclic_reduce
    monkeypatch.setattr(group, "cyclic_reduce", lambda w, p, q: reduced.append(w) or real(w, p, q))
    for x in xs:
        expected = Element(params, (-x).word).cyclic_reduce()
        assert (-Element(params, x.word)).cyclic_reduce() == expected  # nothing cached to carry
        reduced.clear()
        neg = -x  # classify cached x's reduction
        assert neg.cyclic_reduce() == expected and not reduced, x
        assert neg.classify() == x.classify() and (-neg).cyclic_reduce() == x.cyclic_reduce()
