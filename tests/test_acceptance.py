"""Acceptance checks: one test per criterion, with the stated budgets.

Each test prints a single PASS line (visible with -s / on failure); the
pytest verdict itself is the pass/fail record.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from conftest import PQ_LIST, random_element
from trirad.analytic import (
    cycle_integral_23,
    distribution_stats,
    enumerate_classes,
    enumerate_classes_by_trace,
    winding_residual_23,
)
from trirad.group import Element, cocycle_W_el, get_params, is_cusp_word, primitive_root
from trirad.linking import lk_lens, lk_s3, m_gamma, n_gamma
from trirad.symbols import (
    dedekind_Phi,
    euler_cocycle,
    ghys_coding_23,
    modified_Psi_e,
    phi23_formula,
    psi,
    psi_via_cocycle,
    rademacher_Psi,
    syllable_Psi,
)
from trirad.words import GroupWord, Syllable


def _report(num, msg, t0):
    print(f"ACCEPTANCE {num} PASS: {msg} [{time.perf_counter() - t0:.2f}s]")


def test_criterion_01_generator_values():
    t0 = time.perf_counter()
    for p, q in PQ_LIST:
        params = get_params(p, q)
        t = Element.translation(params)
        s = Element.generator(params, "S")
        u = Element.generator(params, "U")
        assert psi(t) == p * q - p - q
        assert psi(s) == -q
        assert psi(u) == -p
        assert psi(-Element.identity(params)) == p * q
        assert dedekind_Phi(t) == params.r
        assert dedekind_Phi(s) == Fraction(q * (p - 2), 2)
        assert dedekind_Phi(u) == Fraction(p * (q - 2), 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "generator values exact for all 7 pairs", t0)


def test_criterion_02_and_03_cocycle_and_dual_pipeline():
    # one shared 10^4-pair sample per (p,q) for criteria 2 and 3
    t0 = time.perf_counter()
    for p, q in PQ_LIST:
        params = get_params(p, q)
        pq = p * q
        rng = random.Random(1000 * p + q)
        for _ in range(10_000):
            x = random_element(params, rng)
            y = random_element(params, rng)
            xy = x * y
            px, py, pxy = psi(x), psi(y), psi(xy)
            assert pxy - px - py == 2 * pq * cocycle_W_el(x, y, xy)
            assert px == psi_via_cocycle(x)
        assert psi(Element.identity(params)) == psi_via_cocycle(Element.identity(params)) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("2+3", "2pq*W coboundary and dual-pipeline agreement on 7x10^4 pairs", t0)


def test_criterion_04_class_invariance_and_power_rule():
    t0 = time.perf_counter()
    for p, q in PQ_LIST:
        params = get_params(p, q)
        rng = random.Random(2000 * p + q)
        for _ in range(1_000):
            x = random_element(params, rng)
            g = random_element(params, rng)
            v = rademacher_Psi(x)
            assert rademacher_Psi(x.conjugate(g)) == v
            assert rademacher_Psi(-x) == v
            assert rademacher_Psi(x.inverse()) == -v
        # power rule on non-elliptic elements, n in -5..5
        powers_checked = 0
        while powers_checked < 25:
            x = random_element(params, rng)
            if x.classify() == "elliptic":
                continue
            v = rademacher_Psi(x)
            for n in range(-5, 6):
                assert rademacher_Psi(x**n) == n * v
            powers_checked += 1
        t = Element.translation(params)
        for n in range(-5, 6):
            assert rademacher_Psi(t**n) == n * params.r
    _report(4, "Psi class invariance (7x10^3 pairs) and power rule", t0)


def test_criterion_05_psi_equals_one_lemma():
    t0 = time.perf_counter()
    for p, q in PQ_LIST:
        solution = None
        for x in range(-q + 1, q):
            if (1 - p * x) % q == 0:
                y = (1 - p * x) // q
                if abs(y) < p and x * y < 0:
                    solution = (x, y)
                    break
        assert solution is not None, (p, q)
        x, y = solution
        params = get_params(p, q)
        gamma = Element(params, GroupWord(1, (Syllable("U", -x), Syllable("S", -y))))
        assert psi(gamma) == 1
        if (p, q) != (2, 3):
            assert gamma.classify() == "hyperbolic"
            assert gamma.asai() > 0  # c > 0
    _report(5, "U^-x S^-y with px+qy=1 has psi=1 (hyperbolic, c>0 off (2,3))", t0)


def test_criterion_06_dedekind_oracle_23():
    t0 = time.perf_counter()
    params = get_params(2, 3)

    def words():
        yield GroupWord(1, ())
        yield GroupWord(-1, ())
        for k in range(1, 13):
            for start in ("S", "U"):
                gens = [start if i % 2 == 0 else ("U" if start == "S" else "S") for i in range(k)]
                pools = [(1,) if g == "S" else (1, 2) for g in gens]
                for exps in product(*pools):
                    sylls = tuple(Syllable(g, e) for g, e in zip(gens, exps))
                    yield GroupWord(1, sylls)
                    yield GroupWord(-1, sylls)

    count = 0
    for w in words():
        el = Element(params, w, _normalized=True)
        a, b, c, d = (int(v.rational_value()) for v in el.matrix.entries())
        assert dedekind_Phi(el) == phi23_formula(a, b, c, d), w
        count += 1
    elapsed = time.perf_counter() - t0
    assert count > 800
    assert elapsed < 60.0
    _report(6, f"Phi matches Dedekind's closed form on {count} elements (<=12 syllables)", t0)


def test_criterion_07_epsilon_coding_23():
    t0 = time.perf_counter()
    params = get_params(2, 3)
    table = enumerate_classes(params, 10)
    assert table.entries
    for entry in table.entries:
        el = Element(params, entry.word, _normalized=True)
        assert ghys_coding_23(el).total == rademacher_Psi(el)
    _report(7, f"sum of epsilons equals Psi on {len(table.entries)} classes (<=10 syllables)", t0)


def test_criterion_07_word_formula_every_pair():
    # criterion 7's epsilon sum generalised: Psi from the syllables of S^a1 U^b1 ...
    # S^ak U^bk, on random and conjugated words of 2-60 syllables, both central signs
    t0 = time.perf_counter()
    rng = random.Random(7007)
    count = 0
    for p, q in PQ_LIST:
        params = get_params(p, q)
        pq = p * q
        cusp_pair = (Syllable("S", p - 1), Syllable("U", q - 1))
        for i in range(120):
            k = rng.randint(1, 30)
            pairs = []
            for _ in range(k):
                if i % 10 == 0 or rng.random() < 0.1:
                    pairs += cusp_pair  # all cusp pairs on every tenth word
                else:
                    pairs += (Syllable("S", rng.randint(1, p - 1)), Syllable("U", rng.randint(1, q - 1)))
            sylls, sigma = tuple(pairs), rng.choice((1, -1))
            x = Element(params, GroupWord(sigma, sylls), _normalized=True)
            Psi = syllable_Psi(sylls, p, q)
            assert Psi == rademacher_Psi(x), x
            # the sign facts, and psi from them
            t = sigma * (-1) ** k
            cusp = is_cusp_word(sylls, p, q)
            assert x.trace_sign() == t and x.asai() == (t if cusp else -t), x
            assert psi(x) == (Psi if t == 1 else Psi + pq if cusp else Psi - pq), x
            # a conjugate: the formula on its cyclically reduced word, rotated to start with S
            y = x.conjugate(random_element(params, rng, 8))
            reduced = y.cyclic_reduce()[0].syllables
            j = reduced[0].gen == "U"
            assert syllable_Psi(reduced[j:] + reduced[:j], p, q) == rademacher_Psi(y) == Psi, y
            count += 1
    _report(7, f"word formula equals Psi, with the sign facts, on {count} words and their conjugates (7 pairs)", t0)


def test_criterion_08_linking_arithmetic():
    t0 = time.perf_counter()
    for p, q in [(2, 5), (3, 4), (3, 5)]:
        params = get_params(p, q)
        r = params.r
        table = enumerate_classes(params, 6)
        assert table.entries
        for entry in table.entries:
            el = Element(params, entry.word, _normalized=True)
            if el.trace_sign() < 0:
                el = -el
            if el.asai() < 0:
                el = el.inverse()
            value = psi(el)
            assert r * lk_lens(el, "psi") == value
            lk3, comps = lk_s3(el, "psi")
            assert comps == math.gcd(r, value)
            assert lk3 * comps == value
            assert lk3 == m_gamma(el) * lk_lens(el, "psi")
            root, _ = primitive_root(el)
            assert math.gcd(r, psi(root)) == comps
            assert (2 * p * q * n_gamma(el) - value) % r == 0
    # (2,3): r = 1, Ghys's theorem lk = psi
    params = get_params(2, 3)
    for entry in enumerate_classes(params, 6).entries:
        el = Element(params, entry.word, _normalized=True)
        if el.trace_sign() < 0:
            el = -el
        if el.asai() < 0:
            el = el.inverse()
        lk3, comps = lk_s3(el, "psi")
        assert (lk3, comps) == (psi(el), 1)
        assert lk_lens(el, "psi") == psi(el)
    _report(8, "lens/S^3 linking arithmetic over classes of (2,5),(3,4),(3,5) and (2,3)", t0)


def _normalized_reps_23(max_syllables, max_trace):
    params = get_params(2, 3)
    out = []
    for entry in enumerate_classes(params, max_syllables).entries:
        if abs(entry.trace) >= max_trace:
            continue
        el = Element(params, entry.word, _normalized=True)
        if el.trace_sign() < 0:
            el = -el
        if el.asai() < 0:
            el = el.inverse()
        out.append(el)
    return out


def test_criterion_09_cycle_integral_23():
    t0 = time.perf_counter()
    reps = _normalized_reps_23(6, 100.0)
    assert reps
    for el in reps:
        res = cycle_integral_23(el, tol=1e-6)
        assert res.residual < 1e-4, (el, res)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(9, f"|quadrature - psi| < 1e-4 on {len(reps)} classes", t0)


def test_criterion_10_winding_number_23():
    t0 = time.perf_counter()
    reps = _normalized_reps_23(6, 100.0)
    for el in reps:
        winding, residual = winding_residual_23(el)
        assert winding == psi(el), el
        assert residual < 0.01, (el, residual)
    _report(10, f"winding index equals psi on {len(reps)} classes (residual < 0.01)", t0)


def test_criterion_11_distribution_23():
    t0 = time.perf_counter()
    params = get_params(2, 3)
    table = enumerate_classes_by_trace(params, 100)
    assert len(table.entries) >= 1_000
    stats = distribution_stats(table, -1.0, 1.0)
    assert stats.ks_distance < 0.15, stats
    _report(
        11,
        f"KS distance {stats.ks_distance:.3f} < 0.15 on {stats.count} trace-ordered classes",
        t0,
    )


def test_criterion_12_euler_integrality():
    t0 = time.perf_counter()
    for p, q in PQ_LIST:
        params = get_params(p, q)
        rng = random.Random(3000 * p + q)
        pq = p * q
        for i in range(10_000):
            x = random_element(params, rng)
            y = random_element(params, rng)
            delta = modified_Psi_e(x * y) - modified_Psi_e(x) - modified_Psi_e(y)
            assert delta % pq == 0
            if i < 100:
                assert euler_cocycle(x, y) == -delta // pq
    _report(12, "Euler cocycle integral on 7x10^4 pairs", t0)
