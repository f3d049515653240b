"""Linking numbers: lens-space and S^3 arithmetic on top of the symbols."""

import math
from fractions import Fraction

import pytest

from conftest import PQ_LIST, random_element
from trirad.analytic import enumerate_classes
from trirad.errors import DomainError, PreconditionError
from trirad.group import Element, get_params, primitive_root
from trirad.linking import (
    VARIANTS,
    generic_fiber_lk,
    in_G_r,
    linking_report,
    lk_lens,
    lk_s3,
    m_gamma,
    n_gamma,
)
from trirad.symbols import homogeneous_Psi_h, modified_Psi_e, psi, rademacher_Psi
from trirad.words import parse_word


def el(params, text):
    return Element(params, parse_word(text))


def test_generic_fiber(P25):
    assert generic_fiber_lk(P25) == Fraction(-10, 3)
    assert generic_fiber_lk(get_params(2, 3)) == -6


def test_fiber_constants_via_Psi_e(P25):
    # the exceptional fibers: lk(S-fiber) = -q/r, lk(U-fiber) = -p/r, lk(T) = 1/1... r/r
    assert lk_lens(el(P25, "S"), "Psi_e") == Fraction(-5, 3)
    assert lk_lens(el(P25, "U"), "Psi_e") == Fraction(-2, 3)
    assert lk_lens(Element.translation(P25), "Psi_e") == 1


def test_n_gamma_and_m_gamma(P25):
    # (2,5): r = 3, 2pq = 20 = 2 mod 3, inverse of 2 mod 3 is 2
    t = Element.translation(P25)
    assert psi(t) == 3
    assert n_gamma(t) == 0
    assert m_gamma(t) == 1
    s = el(P25, "S")
    assert psi(s) == -5
    assert n_gamma(s) == (-5 * 2) % 3 == 2
    assert m_gamma(s) == 3
    assert in_G_r(s, n_gamma(s))
    assert not in_G_r(s, n_gamma(s) + 1)


def test_n_gamma_trivial_at_23(P23):
    assert n_gamma(el(P23, "U * S * U^2 * S")) == 0
    assert m_gamma(Element.translation(P23, 5)) == 1


def test_lens_theorem_form(P25, rng):
    for _ in range(25):
        x = random_element(P25, rng)
        for variant in VARIANTS:
            try:
                v = lk_lens(x, variant)
            except PreconditionError:
                continue
            assert v.denominator in (1, 3)
            assert v * P25.r == modified_Psi_e(x) if variant == "Psi_e" else True


def test_s3_linking_examples(P25):
    t = Element.translation(P25)
    lk3, comps = lk_s3(t, "Psi_e")
    assert (lk3, comps) == (1, 3)  # psi = r: the knot itself, r components upstairs
    s = el(P25, "S")
    lk3, comps = lk_s3(s, "Psi_e")
    assert comps == math.gcd(3, -5) == 1
    assert lk3 == -5


def test_s3_degenerates_at_23(P23):
    x = el(P23, "U * S * U^2 * S")
    lk3, comps = lk_s3(x, "psi")
    assert (lk3, comps) == (psi(x), 1)


def test_variant_preconditions(P23, P25):
    s = el(P23, "S")
    with pytest.raises(PreconditionError):
        lk_lens(s, "psi")  # elliptic
    with pytest.raises(PreconditionError):
        lk_lens(s, "Psi")
    with pytest.raises(PreconditionError):
        lk_lens(s, "Psi_h")
    lk_lens(s, "Psi_e")  # fine
    hyp = el(P23, "U * S * U^2 * S")
    with pytest.raises(PreconditionError):
        lk_lens(-hyp, "psi")  # tr < -2
    with pytest.raises(PreconditionError):
        lk_lens(hyp**2, "psi")  # not primitive
    with pytest.raises(PreconditionError):
        lk_s3(Element.identity(P25), "Psi_e")  # central: no primitive root
    with pytest.raises(DomainError):
        lk_lens(hyp, "nope")


@pytest.mark.parametrize("p,q", [(2, 5), (3, 4)])
def test_invariants_over_classes(p, q):
    params = get_params(p, q)
    r = params.r
    table = enumerate_classes(params, 4)
    assert table.entries
    for entry in table.entries:
        x = Element(params, entry.word, _normalized=True)
        if x.trace_sign() < 0:
            x = -x
        if x.asai() < 0:
            x = x.inverse()
        value = psi(x)
        assert r * lk_lens(x, "psi") == value
        lk3, comps = lk_s3(x, "psi")
        assert comps == math.gcd(r, value)
        assert lk3 * comps == value
        assert lk3 == m_gamma(x) * lk_lens(x, "psi")
        assert in_G_r(x, n_gamma(x))


def test_root_symbol_feeds_gcd(P25):
    x = el(P25, "U * S * U^3 * S")
    sq = x * x
    root, nu = primitive_root(sq)
    assert abs(nu) == 2
    lk3, comps = lk_s3(sq, "Psi_e")
    assert comps == math.gcd(P25.r, modified_Psi_e(root))
    assert lk3 * comps == modified_Psi_e(sq)


_VARIANT_FNS = {"Psi": rademacher_Psi, "Psi_h": homogeneous_Psi_h, "Psi_e": modified_Psi_e}


def _root_symbol_via_primitive_root(x, variant):
    """The reference: build the primitive root and take its symbol."""
    if x.classify() == "elliptic":
        w, _ = x.cyclic_reduce()
        return -x.params.q if w.syllables[0].gen == "S" else -x.params.p
    root, _ = primitive_root(x)
    return _VARIANT_FNS[variant](root)


@pytest.mark.parametrize("p,q", PQ_LIST)
def test_root_symbol_from_the_period(p, q, rng):
    # |Psi(root)| = |Psi(x)| m / len, against the root built by primitive_root
    params = get_params(p, q)
    xs = []
    while len(xs) < 24:
        x = random_element(params, rng, 8, min_syllables=2)
        if x.classify() == "hyperbolic":
            xs.append(x)
    xs += [x**k for x in xs[:6] for k in (2, 3, -2)]
    xs += [(x**k).conjugate(random_element(params, rng)) for x in xs[:6] for k in (2, -3)]
    xs += [Element.translation(params, k) for k in (1, -1, 2, -3, 4)]
    xs += [Element.translation(params, k).conjugate(random_element(params, rng)) for k in (2, -2)]
    xs += [Element.generator(params, "S"), Element.generator(params, "U", q - 1).conjugate(random_element(params, rng))]
    r = params.r
    for x in xs + [-x for x in xs]:
        hyperbolic = x.classify() == "hyperbolic"
        for variant, fn in _VARIANT_FNS.items():
            if variant != "Psi_e" and not hyperbolic:
                continue  # Psi and Psi_h need a hyperbolic element
            value = fn(x)
            g = math.gcd(r, _root_symbol_via_primitive_root(x, variant))
            assert lk_s3(x, variant) == (value // g, g), (x, variant)


def test_linking_report(P25):
    rep = linking_report(el(P25, "S"), variant="Psi_e", space="s3")
    d = rep.to_dict()
    assert d["r"] == 3
    assert d["psi_used"] == -5
    assert d["lk_lens"] == "-5/3"
    assert d["lk_s3"] == -5 and d["components"] == 1
    rep = linking_report(el(P25, "S"), variant="Psi_e", space="lens")
    d = rep.to_dict()
    assert "lk_s3" not in d
    with pytest.raises(DomainError):
        linking_report(el(P25, "S"), space="plane")
