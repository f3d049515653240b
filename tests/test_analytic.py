"""Numeric verification layer: q-series, cycle integrals, windings, statistics."""

import cmath
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import trirad

from trirad.analytic import (
    ClassEntry,
    ClassTable,
    GeodesicData,
    _SYLLABLES_23,
    _TERMS,
    _arg_delta_reduced,
    _e2_reduced,
    _level_23,
    _reduce_23,
    _sigma_tables,
    cycle_integral_23,
    distribution_stats,
    eisenstein_E2,
    enumerate_classes,
    enumerate_classes_by_trace,
    geodesic_data,
    log_delta_23,
    winding_number_23,
    winding_residual_23,
)
from trirad.errors import DomainError, NumericError, PreconditionError
from trirad.group import Element, Matrix2, get_params, is_primitive, primitive_root
from trirad.symbols import ghys_coding_23, psi, rademacher_Psi
from trirad.words import GroupWord, Syllable, minimal_period, parse_word, render_word

from conftest import PQ_LIST, random_element


def el(params, text):
    return Element(params, parse_word(text))


GOLDEN = (1 + math.sqrt(5)) / 2


def test_geodesic_data_golden(P23):
    x = el(P23, "U * S * U^2 * S")  # matrix (2,1;1,1)
    gd = geodesic_data(x)
    assert abs(gd.w - GOLDEN) < 1e-12
    assert abs(gd.w_prime - (1 - GOLDEN)) < 1e-12
    assert abs(gd.xi - (GOLDEN + 1)) < 1e-12
    assert abs(gd.length - 2 * math.log(GOLDEN + 1)) < 1e-12
    # the scaling matrix sends 0, infinity to the fixed points
    (A, B), (C, D) = gd.M
    assert abs(B / D - gd.w_prime) < 1e-12
    assert abs(A / C - gd.w) < 1e-12
    assert abs((A * D - B * C) - 1) < 1e-12


def test_geodesic_length_additivity(P23):
    x = el(P23, "U * S * U^2 * S")
    assert abs(geodesic_data(x**3).length - 3 * geodesic_data(x).length) < 1e-9


def test_geodesic_preconditions(P23):
    with pytest.raises(PreconditionError):
        geodesic_data(el(P23, "S"))
    with pytest.raises(PreconditionError):
        geodesic_data(-el(P23, "U * S * U^2 * S"))
    with pytest.raises(PreconditionError):
        geodesic_data(el(P23, "S * U * S * U^2"))  # c < 0 representative


def test_log_delta_periodicity():
    z = 0.3 + 1.1j
    assert abs(log_delta_23(z + 1) - log_delta_23(z) - 2j * math.pi) < 1e-12


def test_log_delta_product_formula():
    # Delta = q prod (1-q^n)^24: compare against the direct product
    z = 0.17 + 0.9j
    qq = cmath.exp(2j * cmath.pi * z)
    direct = 2j * cmath.pi * z + 24 * sum(cmath.log(1 - qq**n) for n in range(1, 60))
    assert abs(log_delta_23(z) - direct) < 1e-10


def test_log_delta_modularity_gap():
    # log Delta(-1/z) - log Delta(z) = 12 log(z/i) with the principal branch
    z = 2j
    gap = log_delta_23(-1 / z) - log_delta_23(z) - 12 * cmath.log(z / 1j)
    assert abs(gap) < 1e-10
    with pytest.raises(DomainError):
        log_delta_23(1.0 + 0j)


def test_eisenstein_E2_weight_two_defect():
    # E2(-1/z) = z^2 E2(z) + 12 z / (2 pi i)
    z = 0.1 + 1.3j
    lhs = eisenstein_E2(-1 / z)
    rhs = z * z * eisenstein_E2(z) + 12 * z / (2j * math.pi)
    assert abs(lhs - rhs) < 1e-9
    nan, inf = math.nan, math.inf
    for bad in (1.0 + 0j, 0.5 - 1j, complex(0.1, nan), complex(nan, 1.0), complex(0.0, inf), complex(inf, 1.0)):
        with pytest.raises(DomainError):
            eisenstein_E2(bad)
        with pytest.raises(DomainError):
            log_delta_23(bad)
    with pytest.raises(DomainError):
        eisenstein_E2(1j, N=0)
    with pytest.raises(DomainError):
        log_delta_23(1j, N=0)


def test_q_series_matches_the_termwise_sum():
    # the same truncated sums written out term by term; and the per-node sums, which run their own
    # Horner loop on the node's q, agree with them at gz = z (gamma = I: c = 0, d = 1)
    zs = [0.1 + 1.3j, -0.4 + 0.2j, 2.7 + 0.05j]
    s1 = [sum(d for d in range(1, n + 1) if n % d == 0) for n in range(1, 201)]
    sigma_1, sigma_m1 = _sigma_tables(200)
    for z in zs:
        qq = cmath.exp(2j * cmath.pi * z)
        e2 = 1 - 24 * sum(s * qq**n for n, s in enumerate(s1, 1))
        ld = 2j * cmath.pi * z - 24 * sum(s / n * qq**n for n, s in enumerate(s1, 1))
        assert abs(eisenstein_E2(z) - e2) < 1e-9 * max(1.0, abs(e2))
        assert abs(log_delta_23(z) - ld) < 1e-9 * max(1.0, abs(ld))
        at_z = (z, 0.0, 1.0, cmath.exp(2j * cmath.pi * (z - round(z.real))))  # q as the public sums take it
        assert abs(_e2_reduced(z, sigma_1, at_z) - eisenstein_E2(z)) <= 1e-14 * abs(eisenstein_E2(z))
        assert abs(_arg_delta_reduced(z, sigma_m1, at_z) - log_delta_23(z).imag) <= 1e-14 * abs(log_delta_23(z))
    # a numpy scalar, as a caller holding its nodes in an array passes them, is taken like a complex
    assert log_delta_23(np.complex128(1j)) == log_delta_23(1j)
    with pytest.raises(DomainError):
        log_delta_23(np.complex128(0.5 + 0j))


def test_q_series_take_re_z_modulo_one():
    # q = e^(2 pi i z) is 1-periodic; far out along the real axis 2 pi z would overflow, or lose Re z's fraction
    for x in (1e300, 1e308, -(2.0**60)):
        assert eisenstein_E2(complex(x, 1.0)) == eisenstein_E2(1j)
    assert eisenstein_E2(1e15 + 0.25 + 1j) == eisenstein_E2(0.25 + 1j)
    assert log_delta_23(complex(1e15 + 0.25, 1.0)).real == log_delta_23(0.25 + 1j).real


def test_cycle_integral_examples(P23):
    x = el(P23, "U * S * U^2 * S")
    res = cycle_integral_23(x)
    assert res.psi == 0
    assert res.residual < 1e-5
    y = el(P23, "- U * S * U^2 * S * U^2 * S")  # matrix (3,1;2,1), psi = -1
    res = cycle_integral_23(y)
    assert res.psi == psi(y) == -1
    assert res.residual < 1e-5


def test_cycle_integral_preconditions(P23):
    with pytest.raises(PreconditionError):
        cycle_integral_23(Element.translation(P23, 3))
    x = el(P23, "U * S * U^2 * S")
    with pytest.raises(PreconditionError):
        cycle_integral_23(x**2)
    with pytest.raises(DomainError):
        cycle_integral_23(el(get_params(2, 5), "U * S * U^3"))


def test_winding_residual_preconditions(P23):
    with pytest.raises(DomainError):
        winding_residual_23(-el(get_params(2, 5), "U * S * U^2"))
    with pytest.raises(PreconditionError):
        winding_residual_23(Element.translation(P23, 3))
    with pytest.raises(PreconditionError):
        winding_residual_23(el(P23, "S * U * S * U^2"))  # c < 0 representative


def test_cycle_integral_order_cap(P23):
    # no trapezoid sum of up to 2048 intervals reaches 1e-30 in double precision
    with pytest.raises(NumericError):
        cycle_integral_23(el(P23, "U * S * U^2 * S"), tol=1e-30)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_cycle_integral_rejects_an_invalid_tol(P23, tol):
    with pytest.raises(DomainError):
        cycle_integral_23(el(P23, "U * S * U^2 * S"), tol=tol)


def test_cycle_integral_extreme_tols(P23):
    x = el(P23, "- U * S * U^2 * S * U^2 * S")
    # no sum reaches a subnormal tol
    with pytest.raises(NumericError):
        cycle_integral_23(x, tol=1e-320)
    assert cycle_integral_23(x, tol=1e300).psi == -1


def test_the_series_length_does_not_depend_on_tol(P23, monkeypatch):
    lengths = []
    e2 = trirad.analytic._e2_reduced
    monkeypatch.setattr(trirad.analytic, "_e2_reduced", lambda z, sigma_1, reduced: lengths.append(len(sigma_1)) or e2(z, sigma_1, reduced))
    for tol in (1e300, 1e-2, 1e-6, 1e-12):
        cycle_integral_23(el(P23, "- U * S * U^2 * S * U^2 * S"), tol=tol)
    assert set(lengths) == {_TERMS} == {7}


def _oriented(x):
    """The representative with tr > 2 and c > 0, as `trirad numeric-check` takes it."""
    if x.trace_sign() < 0:
        x = -x
    return x if x.asai() > 0 else x.inverse()


def test_cycle_integral_on_every_class_to_sixteen_syllables(P23):
    reps = [_oriented(Element(P23, entry.word, _normalized=True)) for entry in enumerate_classes(P23, 16).entries]
    assert len(reps) == 69
    for x in reps:
        res = cycle_integral_23(x)
        assert res.residual < 1e-10, (x, res)


EPS = 2.0**-53


def _exact_image(gamma, z):
    """gamma(z) for an integer matrix, in exact rationals, z's float parts taken exactly."""
    a, b, c, d = gamma
    x, y = Fraction(z.real), Fraction(z.imag)
    nr, ni, dr, di = a * x + b, a * y, c * x + d, c * y
    den = dr * dr + di * di
    return (nr * dr + ni * di) / den, (ni * dr - nr * di) / den


def _reduction_nodes(rng):
    """Im z in [0.01, 3] at random, on |z| = 1 and on Re z = +-1/2; then nodes down to Im z = 1e-12."""
    ys = [rng.uniform(0.01, 3) for _ in range(200)]
    zs = [complex(rng.uniform(-4, 4), y) for y in ys]
    zs += [cmath.exp(1j * rng.uniform(0.01, math.pi - 0.01)) for _ in range(60)]
    zs += [complex(s * 0.5, rng.uniform(0.01, 3)) for s in (1, -1) for _ in range(30)]
    zs += [1j, cmath.exp(1j * math.pi / 3), cmath.exp(2j * math.pi / 3), 0.5 + 0.01j]
    deep = [complex(rng.uniform(-4, 4), 10 ** rng.uniform(-12, -2)) for _ in range(100)]
    return zs, deep


def test_reduce_23_lands_in_the_fundamental_domain_within_its_error_bound():
    rng = random.Random(23)
    zs, deep = _reduction_nodes(rng)
    for j, z in enumerate(zs + deep):
        g, cf, df = _reduce_23(z)
        if j % 10 == 0:  # a node in the domain comes back as it is, with gamma = I
            assert _reduce_23(g) == (g, 0.0, 1.0), (z, g)
        assert abs(g.real) <= 0.5 and abs(g) >= 1 - 2.0**-50 and g.imag >= math.sqrt(3) / 2 - 2.0**-50, (z, g)
        ci, di = int(cf), int(df)
        assert (ci, di) == (cf, df) and math.gcd(ci, di) == 1, (z, cf, df)
        # a top row with ad - bc = 1; gamma is it up to a translation T^m
        a = di if ci == 0 else pow(di, -1, abs(ci))
        b = 0 if ci == 0 else (a * di - 1) // ci
        assert a * di - b * ci == 1
        er, ei = _exact_image((a, b, ci, di), z)
        m = round(Fraction(g.real) - er)
        err = abs(complex(float(Fraction(g.real) - er - m), float(Fraction(g.imag) - ei)))
        # the docstring's bound: 2 k eps Im gz / Im z for k <= log2(1/Im z) + 3 passes, plus gz's own rounding
        k = max(math.log2(1 / z.imag), 1) + 3
        assert err <= 2 * k * EPS * g.imag / z.imag + 2 * EPS * abs(g), (z, g, err)
        if z.imag >= 0.01:
            assert err <= 1e-12 * abs(g), (z, g, err)


def test_reduce_23_rejects_points_off_the_upper_half_plane():
    for bad in (0.3 + 0j, 0.3 - 1e-300j, complex(0.1, math.nan), complex(math.nan, 1.0), complex(0.0, math.inf)):
        with pytest.raises(DomainError):
            _reduce_23(bad)
        with pytest.raises(DomainError):
            _reduce_23(np.complex128(bad))


def _reduced(z):
    """`_reduce_23(z)` and the node's q = e^(2 pi i gz), as `_level_23` keeps them."""
    gz, c, d = _reduce_23(z)
    return gz, c, d, cmath.exp(2j * math.pi * gz)


def test_reduced_series_match_the_direct_series():
    zs, _ = _reduction_nodes(random.Random(7))
    sigma_1, sigma_m1 = _sigma_tables(_TERMS)
    for z in zs:
        reduced = _reduced(z)
        # 1000 terms make the direct tails negligible at Im z >= 0.01
        direct_e2, direct_ld = eisenstein_E2(z, 1000), log_delta_23(z, 1000)
        assert abs(_e2_reduced(z, sigma_1, reduced) - direct_e2) <= 1e-10 * max(1.0, abs(direct_e2)), z
        gap = (_arg_delta_reduced(z, sigma_m1, reduced) - direct_ld.imag + math.pi) % (2 * math.pi) - math.pi
        assert abs(gap) <= 1e-10, z


def test_seven_terms_leave_a_tail_below_an_ulp_on_the_fundamental_domain():
    # `_e2_reduced`'s bound: 24 sum_{n>7} n (1 + ln n) r^n, r = e^(-2 pi Im gz) at Im gz = sqrt(3)/2 - 2^-50
    r = math.exp(-2 * math.pi * (math.sqrt(3) / 2 - 2.0**-50))
    bound = 24 * sum(n * (1 + math.log(n)) * r**n for n in range(_TERMS + 1, 200))
    assert bound <= 7.4e-17
    # nodes of the domain, gamma = I: the corners rho and rho + 1, i, and random nodes as `_reduce_23` leaves them
    rng = random.Random(29)
    rho = cmath.exp(2j * math.pi / 3)
    nodes = [rho, rho + 1, 1j] + [_reduce_23(complex(rng.uniform(-3, 3), 10 ** rng.uniform(-3, 0.5)))[0] for _ in range(3000)]
    assert abs(rho.imag - math.sqrt(3) / 2) <= 2.0**-50
    seven, forty = _sigma_tables(_TERMS), _sigma_tables(40)
    for gz in nodes:
        at_gz = (gz, 0.0, 1.0, cmath.exp(2j * math.pi * gz))
        # the two sums differ by the tail, and each final sum is rounded once
        e2, e2_40 = _e2_reduced(gz, seven[0], at_gz), _e2_reduced(gz, forty[0], at_gz)
        assert abs(e2 - e2_40) <= bound + math.ulp(abs(e2_40)), gz
        arg, arg_40 = _arg_delta_reduced(gz, seven[1], at_gz), _arg_delta_reduced(gz, forty[1], at_gz)
        assert abs(arg - arg_40) <= bound + math.ulp(abs(arg_40)), gz


def _random_primitive_23(P23, rng, syllables):
    """An oriented primitive (2,3) class of the given (even) syllable count, as a word over L = S U, R = S U^2."""
    L, R = (Syllable("S", 1), Syllable("U", 1)), (Syllable("S", 1), Syllable("U", 2))
    while True:
        letters = [rng.choice((L, R)) for _ in range(syllables // 2)]
        if L in letters and R in letters:
            x = _oriented(Element(P23, GroupWord(1, tuple(s for ab in letters for s in ab))))
            if is_primitive(x):
                return x


def _alternating_23(P23, k):
    """(L R)^k L: the greatest trace among words of 2k + 1 letters L, R (checked by exhaustion to 17 letters)."""
    word = "S * U * S * U^2 * " * k + "S * U"
    return _oriented(el(P23, word))


def test_long_classes_inside_the_length_domain(P23):
    rng = random.Random(2050)
    xs = [_random_primitive_23(P23, rng, n) for n in range(20, 52, 2) for _ in range(24)]
    # 50 syllables, trace 1.5e5; and 82 syllables, trace 3.3e8, above the trace of every
    # 80-syllable class (at most the Lucas number L_40 = 2.3e8)
    xs += [_alternating_23(P23, 12), _alternating_23(P23, 20)]
    for x in xs:
        res = cycle_integral_23(x)
        winding, _ = winding_residual_23(x)
        assert res.residual < 1e-6 and winding == res.psi == psi(x), (x, res, winding)


def test_classes_past_the_length_domain_are_right_or_refused(P23):
    rng = random.Random(80)
    xs = [_random_primitive_23(P23, rng, n) for n in (80, 120, 160)] + [_alternating_23(P23, 30)]
    for x in xs:
        try:
            res = cycle_integral_23(x)
        except NumericError:
            continue
        assert res.residual < 1e-4 and res.psi == psi(x), (x, res)


def _exact_geodesic_data(x):
    """`geodesic_data` from the exact matrix's float entries: the reference for the shadow path."""
    a, b, c, d = x.matrix.float_entries()
    t = a + d
    disc = math.sqrt(t * t - 4.0)
    w = ((a - d) + disc) / (2.0 * c)
    w_prime = ((a - d) - disc) / (2.0 * c)
    xi = c * w + d
    s = math.sqrt(w - w_prime)
    M = ((w / s, w_prime / s), (1.0 / s, 1.0 / s))
    return GeodesicData(w=w, w_prime=w_prime, xi=xi, M=M, length=2.0 * math.log(xi))


def _bits(gd):
    return [v.hex() for v in (gd.w, gd.w_prime, gd.xi, gd.length, *gd.M[0], *gd.M[1])]


def test_geodesic_data_from_the_shadow_is_the_exact_path_bit_for_bit(P23, P25, monkeypatch):
    rng = random.Random(417)
    xs = [_random_primitive_23(P23, rng, n) for n in (*range(4, 302, 6), 400, 500, 600)]
    with pytest.raises(DomainError):  # (2,3) only, like the quadrature
        geodesic_data(_oriented(el(P25, "S * U * S * U^3")))
    exact_reads = []
    float_entries = Matrix2.float_entries
    monkeypatch.setattr(Matrix2, "float_entries", lambda m: exact_reads.append(m) or float_entries(m))
    fell_back = []
    for x in xs:
        before = len(exact_reads)
        got = geodesic_data(x)
        fell_back.append(len(exact_reads) > before)
        assert _bits(got) == _bits(_exact_geodesic_data(x)), x
    # every (2,3) class is read off the word's integer matrix, however long
    assert not any(fell_back)


def test_the_23_integer_table_is_the_syllable_matrices(P23):
    for (gen, e), entries in _SYLLABLES_23.items():
        m = P23.syllable_matrix(gen, e)
        assert m.entries() == tuple(P23.field.from_rational(v) for v in entries), (gen, e)
    assert sorted(_SYLLABLES_23) == [("S", 1), ("U", 1), ("U", 2)]


def test_quadrature_of_the_round_classes_does_no_exact_multiply(P23, monkeypatch):
    def refuse(*_):
        raise AssertionError("exact matrix product on the quadrature path")

    monkeypatch.setattr(Matrix2, "__mul__", refuse)
    rows = [e for e in enumerate_classes_by_trace(P23, 100).entries if len(e.word) <= 12]
    assert len(rows) == 21
    for e in rows:
        x = _oriented(Element(P23, e.word, _normalized=True))
        res = cycle_integral_23(x)
        winding, residual = winding_residual_23(x)
        assert res.residual < 1e-6 and winding == res.psi and residual < 0.01, (x, res, winding)


def test_cycle_integral_psi_is_the_exact_psi(P23):
    rng = random.Random(1723)
    seen = set()
    for n in range(4, 28, 2):
        for _ in range(2):
            core = _random_primitive_23(P23, rng, n)
            g = random_element(P23, rng, max_syllables=5)
            x = _oriented(g * core * g.inverse())
            seen.add((x.word.sign, x.cyclic_reduce()[0].syllables[0].gen))
            assert cycle_integral_23(x).psi == psi(x), x
    # central sign -1 (from negation) and reductions that start with U (mostly from inverse()) both occur
    assert seen == {(1, "S"), (1, "U"), (-1, "S"), (-1, "U")}


def test_import_leaves_out_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(trirad.__file__).parents[1]))
    code = "import sys, trirad.analytic; print('scipy' in sys.modules, 'numpy.polynomial' in sys.modules, 'numpy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0 and res.stdout.strip() == "False False False", res.stdout + res.stderr


def test_winding_examples(P23):
    x = el(P23, "U * S * U^2 * S")
    assert winding_number_23(x) == 0
    y = el(P23, "- U * S * U^2 * S * U^2 * S")
    assert winding_number_23(y) == psi(y) == -1
    _, residual = winding_residual_23(y)
    assert residual < 0.01


def test_winding_gives_up_at_two_to_the_eighteen_intervals(P23, monkeypatch):
    # a phase of uniform noise in (-pi, pi) leaves some step >= pi/2 on every level of the ladder
    noise = random.Random(18)
    monkeypatch.setattr(trirad.analytic, "_arg_delta_reduced", lambda z, sigma_m1, reduced: noise.uniform(-math.pi, math.pi))
    sizes = _spy_reductions(monkeypatch)
    y = el(P23, "- U * S * U^2 * S * U^2 * S")
    with pytest.raises(NumericError, match="pi/2 at 2\\^18 intervals"):
        winding_residual_23(y)
    assert sum(sizes) == 2**18 + 1


def test_enumerate_classes_23(P23):
    table = enumerate_classes(P23, 6)
    words = {render_word(e.word) for e in table.entries}
    assert "S * U * S * U^2" in words  # the golden-ratio class
    assert len(table.entries) == 3
    table8 = enumerate_classes(P23, 8)
    assert len(table8.entries) == 6
    for e in table8.entries:
        x = Element(P23, e.word, _normalized=True)
        assert x.classify() == "hyperbolic"
        assert e.psi == psi(x) and e.Psi == rademacher_Psi(x)
        assert abs(e.length - 2 * math.acosh(abs(e.trace) / 2)) < 1e-9


def test_enumerate_classes_no_duplicates(P34):
    table = enumerate_classes(P34, 6)
    reps = set()
    for e in table.entries:
        sylls = e.word.syllables
        key = min(sylls[i:] + sylls[:i] for i in range(len(sylls)))
        assert key not in reps
        reps.add(key)
    assert len(table.entries) > 20


def test_enumeration_matches_ghys(P23):
    for e in enumerate_classes(P23, 8).entries:
        x = Element(P23, e.word, _normalized=True)
        assert ghys_coding_23(x).total == e.Psi


def test_enumerate_by_trace(P23):
    table = enumerate_classes_by_trace(P23, 12)
    assert all(2 < abs(e.trace) <= 12.5 for e in table.entries)
    # contains exactly the syllable-short classes of small trace
    small = {render_word(e.word) for e in enumerate_classes(P23, 4).entries}
    got = {render_word(e.word) for e in table.entries}
    assert small <= got
    with pytest.raises(DomainError):
        enumerate_classes_by_trace(get_params(2, 5), 12)
    with pytest.raises(DomainError):
        enumerate_classes_by_trace(P23, 2)


def test_trace_ball_is_complete(P23):
    # every syllable-bounded class with trace below the cutoff shows up
    X = 40
    ball = {render_word(e.word) for e in enumerate_classes_by_trace(P23, X).entries}
    for e in enumerate_classes(P23, 12).entries:
        if abs(e.trace) <= X - 0.5:
            assert render_word(e.word) in ball, e


def _lr_word(seq):
    return GroupWord(1, tuple(s for e in seq for s in (Syllable("S", 1), Syllable("U", e))))


def _reference_words_by_trace(X):
    """Sorted least rotations of primitive L/R words with 2 < trace <= X, from a DFS over all words."""
    seen = set()
    reps = []
    stack = [((), (1, 0, 0, 1), False, False)]
    while stack:
        seq, (a, b, c, d), has_l, has_r = stack.pop()
        if has_l and has_r and 2 < a + d <= X:
            k = len(seq)
            key = min(seq[i:] + seq[:i] for i in range(k))
            if key not in seen:
                seen.add(key)
                if minimal_period(key) == k:
                    reps.append(key)
        if a + d > X or len(seq) > 4 * X:
            continue
        stack.append((seq + (1,), (a + b, b, c + d, d), True, has_r))
        stack.append((seq + (2,), (a, a + b, c, c + d), has_l, True))
    return [_lr_word(seq) for seq in sorted(reps)]


def _reference_words_by_syllables(params, max_syllables):
    """Least even rotations of primitive S^a U^b words, by length, each first met in lexicographic order."""
    p, q = params.p, params.q
    seen = set()
    reps = []
    for pairs in range(1, max_syllables // 2 + 1):
        stack = [()]
        for _ in range(pairs):
            stack = [s + (Syllable("S", a), Syllable("U", b)) for s in stack for a in range(1, p) for b in range(1, q)]
        for sylls in stack:
            key = min(sylls[i:] + sylls[:i] for i in range(0, len(sylls), 2))
            if key in seen:
                continue
            seen.add(key)
            if minimal_period(sylls) == len(sylls):
                reps.append(GroupWord(1, key))
    return [w for w in reps if Element(params, w, _normalized=True).classify() == "hyperbolic"]


@pytest.mark.parametrize("X", [3, 5, 12, 40, 100])
def test_enumerate_by_trace_matches_the_rotation_key_search(P23, X):
    assert [e.word for e in enumerate_classes_by_trace(P23, X).entries] == _reference_words_by_trace(X)


SYLLABLE_BOUNDS = {(2, 3): 20, (2, 5): 8, (2, 7): 8, (3, 4): 8, (3, 5): 8, (4, 5): 6, (5, 7): 6}


@pytest.mark.parametrize("p,q", PQ_LIST)
def test_enumerate_classes_matches_the_rotation_key_search(p, q):
    params = get_params(p, q)
    n = SYLLABLE_BOUNDS[(p, q)]
    assert [e.word for e in enumerate_classes(params, n).entries] == _reference_words_by_syllables(params, n)


def _necklaces(k, m):
    """Witt's count of primitive necklaces of length m over k letters: (1/m) sum_{d | m} mu(d) k^(m/d)."""

    def mu(d):
        out, n, f = 1, d, 2
        while f * f <= n:
            if n % f == 0:
                n //= f
                if n % f == 0:
                    return 0
                out = -out
            f += 1
        return -out if n > 1 else out

    return sum(mu(d) * k ** (m // d) for d in range(1, m + 1) if m % d == 0) // m


@pytest.mark.parametrize(
    "p,q,n,rows",
    [(2, 3, 30, 4718), (2, 5, 12, 962), (2, 7, 10, 1958), (3, 4, 10, 1958), (3, 5, 10, 7762), (4, 5, 8, 5796), (5, 7, 6, 4898)],
)
def test_enumerate_classes_counts_every_primitive_necklace(p, q, n, rows):
    # all Lyndon words over the (p-1)(q-1) letters but the two one-letter cusp words,
    # counted from outside the walk, at bounds past the rotation-key reference
    entries = enumerate_classes(get_params(p, q), n).entries
    k = (p - 1) * (q - 1)
    assert len(entries) == sum(_necklaces(k, m) for m in range(1, n // 2 + 1)) - 2 == rows
    keys = [(len(e.word.syllables), e.word.syllables) for e in entries]
    assert all(u < v for u, v in zip(keys, keys[1:]))


def _element_row(x):
    """A class row built from the element: the shadow's trace and the computed psi and Psi."""
    t = x.float_trace()
    at = abs(t)
    xi = (at + math.sqrt(at * at - 4.0)) / 2.0
    return ClassEntry(word=x.word, trace=t, psi=psi(x), Psi=rademacher_Psi(x), length=2.0 * math.log(xi))


@pytest.mark.parametrize("X", [3, 5, 12, 40, 100, 300])
def test_by_trace_rows_equal_the_element_rows(P23, X):
    entries = enumerate_classes_by_trace(P23, X).entries
    assert entries == tuple(_element_row(Element(P23, e.word, _normalized=True)) for e in entries)


@pytest.mark.parametrize("p,q", PQ_LIST)
def test_enumerate_classes_rows_equal_the_element_rows(p, q):
    params = get_params(p, q)
    entries = enumerate_classes(params, SYLLABLE_BOUNDS[(p, q)]).entries
    assert entries == tuple(_element_row(Element(params, e.word, _normalized=True)) for e in entries)


@pytest.mark.parametrize("X", [5, 8, 12, 16])
def test_trace_ball_is_exactly_the_syllable_ball_cut_by_trace(P23, X):
    # an L/R word of length n with both letters has trace >= n + 1, so n <= X - 1 pairs
    ball = {e.word for e in enumerate_classes_by_trace(P23, X).entries}
    cut = {e.word for e in enumerate_classes(P23, 2 * (X - 1)).entries if abs(e.trace) <= X}
    assert ball == cut


def test_enumerate_by_trace_300(P23):
    words = [e.word.syllables for e in enumerate_classes_by_trace(P23, 300).entries]
    assert len(words) == 8704
    assert all(u < v for u, v in zip(words, words[1:]))
    assert all(minimal_period(w) == len(w) for w in words)


def test_distribution_stats(P23):
    table = enumerate_classes(P23, 10)
    st = distribution_stats(table, -math.inf, math.inf)
    assert st.fraction == 1.0
    assert abs(st.reference - 1.0) < 1e-12
    st = distribution_stats(table, 0.0, math.inf)
    assert abs(st.reference - 0.5) < 1e-12
    assert 0.0 <= st.ks_distance <= 1.0
    with pytest.raises(DomainError):
        distribution_stats(ClassTable(2, 3, ()), 0, 1)
    for a, b in ((math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)):
        with pytest.raises(DomainError):
            distribution_stats(table, a, b)
    # a > b stays accepted by the library: an empty band with a negative reference
    st = distribution_stats(table, 1.0, -1.0)
    assert st.fraction == 0.0 and st.reference < 0


def _old_distribution_stats(table, a, b):
    """distribution_stats as it was written before its one-pass loop: the reference for its bits."""
    pq = table.p * table.q
    ratios = sorted(e.Psi / e.length for e in table.entries)
    n = len(ratios)
    fraction = sum(1 for x in ratios if a <= x <= b) / n

    def ref_cdf(x):
        return 0.5 + math.atan(2 * math.pi * x / pq) / math.pi

    reference = (math.atan(2 * math.pi * b / pq) - math.atan(2 * math.pi * a / pq)) / math.pi
    ks = 0.0
    for i, x in enumerate(ratios):
        fx = ref_cdf(x)
        ks = max(ks, abs((i + 1) / n - fx), abs(i / n - fx))
    return (n, fraction, reference, ks)


def test_distribution_stats_is_bit_identical_to_the_two_pass_sum(P23):
    table = enumerate_classes_by_trace(P23, 300)
    for a, b in [(-1, 1), (-math.inf, math.inf), (0.0, math.inf), (-0.3, 0.05), (0.4, 0.1), (2.0, 3.0)]:
        got = distribution_stats(table, a, b)
        assert [v.hex() if isinstance(v, float) else v for v in got] == [
            v.hex() if isinstance(v, float) else v for v in _old_distribution_stats(table, a, b)
        ], (a, b)


# ---------------------------------------------------------------------------
# the periodic trapezoid rule against the Gauss-Legendre sum it replaced


def _gauss_legendre_cycle_integral(x, order=256):
    """The cycle integral as a Gauss-Legendre sum of E2(z) z' over the centred period, plus the closed form
    of the non-holomorphic term: the integral of dz/Im z over the period is 2 (atan xi - atan(1/xi))."""
    gd = geodesic_data(x)
    half = 0.5 * math.log(gd.xi)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    iy = 1j * np.exp(2.0 * half * nodes)
    z = (gd.w * iy + gd.w_prime) / (iy + 1.0)
    dz = 2.0 * iy * (gd.w - gd.w_prime) / (iy + 1.0) ** 2
    sigma_1 = _sigma_tables(13)[0]  # an independent truncation of the series
    e2 = half * np.sum(weights * np.array([_e2_reduced(zk, sigma_1, _reduced(zk)) for zk in z.tolist()]) * dz)
    return (complex(e2) - (6.0 / math.pi) * (math.atan(gd.xi) - math.atan(1.0 / gd.xi))).real


def _round_classes(P23):
    """The 21 classes of at most 12 syllables in the trace-100 table, oriented."""
    rows = [e for e in enumerate_classes_by_trace(P23, 100).entries if len(e.word) <= 12]
    assert len(rows) == 21
    return [_oriented(Element(P23, e.word, _normalized=True)) for e in rows]


def test_trapezoid_rule_matches_the_gauss_legendre_sum(P23):
    reps = [_oriented(Element(P23, entry.word, _normalized=True)) for entry in enumerate_classes(P23, 16).entries]
    assert len(reps) == 69
    for x in reps + _round_classes(P23):
        assert abs(cycle_integral_23(x).value - _gauss_legendre_cycle_integral(x)) <= 1e-12, x


def test_round_classes_take_one_reduction_and_no_gauss_legendre_table(P23):
    xs = _round_classes(P23)
    # a profile hook sees every call of these functions, however a caller holds them; one reduction per node
    spied = {_reduce_23.__code__: "reduce", np.polynomial.legendre.leggauss.__code__: "leggauss"}
    calls = []

    def spy(frame, event, _):
        if event == "call" and frame.f_code in spied:
            calls.append(spied[frame.f_code])

    before = sys.getprofile()
    try:
        for x in xs:
            calls.clear()
            sys.setprofile(spy)
            cycle_integral_23(x)
            sys.setprofile(before)
            assert calls == ["reduce"] * 65, (x, calls)
    finally:
        sys.setprofile(before)


def test_integrand_is_periodic_on_long_classes(P23):
    rng = random.Random(2120)
    sigma_1 = _sigma_tables(13)[0]
    for n in range(20, 52, 2):
        for _ in range(3):
            gd = geodesic_data(_random_primitive_23(P23, rng, n))
            f = []
            for z, iy, reduced in _level_23(gd, [0.0, 1.0]):  # t = -L/2 and L/2
                dz = 2.0 * iy * (gd.w - gd.w_prime) / (iy + 1.0) ** 2
                f.append((_e2_reduced(z, sigma_1, reduced) - 3.0 / (math.pi * z.imag)) * dz)
            assert abs(f[0] - f[1]) <= 1e-9 * abs(f[1]), (n, f)


def _complex_log_winding(x):
    """The winding as summed before the phase-only series: Im of the whole log Delta, arg j(g,i) from a complex log."""
    gd = geodesic_data(x)
    s = np.linspace(0.0, 1.0, 1024)
    t = math.log(gd.xi) * (s - 0.5)
    N = 14  # an independent truncation of the series
    ph = np.array([log_delta_23(gz, N).imag - 12.0 * cmath.phase(c * z + d) for z, _, (gz, c, d, _) in _level_23(gd, s.tolist())])
    ph -= 12.0 * np.imag(np.log(np.exp(t) * 1j + np.exp(-t)))
    wrapped = (np.diff(ph) + np.pi) % (2 * np.pi) - np.pi
    assert np.max(np.abs(wrapped)) < np.pi / 2
    turns = float(np.sum(wrapped)) / (2 * np.pi)
    return round(turns), abs(turns - round(turns))


def test_phase_only_winding_matches_the_complex_log(P23):
    reps = [_oriented(Element(P23, entry.word, _normalized=True)) for entry in enumerate_classes(P23, 16).entries]
    for x in reps + _round_classes(P23):
        winding, residual = winding_residual_23(x)
        old_winding, old_residual = _complex_log_winding(x)
        assert winding == old_winding and abs(residual - old_residual) <= 1e-12, x


# ---------------------------------------------------------------------------
# the winding ladder against the 1024-sample ladder it replaced


def _winding_from_1024_samples(x):
    """The winding as laddered before the shared first level: 1024 samples, all evaluated again at each doubling."""
    gd = geodesic_data(x)
    n = 1024
    sigma_m1 = _sigma_tables(14)[1]  # an independent truncation of the series
    while True:
        nodes = list(_level_23(gd, np.linspace(0.0, 1.0, n).tolist()))
        ph = np.array([_arg_delta_reduced(z, sigma_m1, reduced) for z, _, reduced in nodes])
        ph -= 12.0 * np.arctan([iy.imag for _, iy, _ in nodes])
        wrapped = (np.diff(ph) + np.pi) % (2 * np.pi) - np.pi
        if np.max(np.abs(wrapped)) < np.pi / 2:
            turns = float(np.sum(wrapped)) / (2 * np.pi)
            return round(turns), abs(turns - round(turns))
        n *= 2


def _spy_reductions(monkeypatch):
    """A list that gains a 1 at every `_reduce_23` call from here on: one per reduced node."""
    sizes = []
    reduce = trirad.analytic._reduce_23
    monkeypatch.setattr(trirad.analytic, "_reduce_23", lambda z: sizes.append(1) or reduce(z))
    return sizes


def test_winding_ladder_matches_the_1024_sample_ladder(P23, monkeypatch):
    xs = [_oriented(Element(P23, entry.word, _normalized=True)) for entry in enumerate_classes(P23, 16).entries]
    rng = random.Random(5)
    xs += [_random_primitive_23(P23, rng, rng.randrange(20, 82, 2)) for _ in range(48)]
    xs += [_alternating_23(P23, k) for k in (5, 10, 20, 26)]
    # L^k R = (S U)^k (S U^2) takes the ladder to 129, 257 and 1025 nodes, which pins the midpoint interleave
    xs += [_oriented(el(P23, "S * U * " * k + "S * U^2")) for k in (8, 16, 40)]
    sizes = _spy_reductions(monkeypatch)
    nodes = []
    for x in xs:
        sizes.clear()
        winding, residual = winding_residual_23(x)
        nodes.append(sum(sizes))
        old_winding, old_residual = _winding_from_1024_samples(x)
        assert winding == old_winding and abs(residual - old_residual) <= 1e-12, x
    assert nodes[-3:] == [129, 257, 1025]


def test_cycle_integral_and_winding_share_one_reduction_of_the_first_level(P23, monkeypatch):
    sizes = _spy_reductions(monkeypatch)
    for x in _round_classes(P23):
        sizes.clear()
        cycle_integral_23(x)
        winding_residual_23(x)
        assert sum(sizes) == 65, (x, sizes)
        # the kept first level belongs to x alone: -x, x^-1 and the primitive root are new elements
        assert "level_23" in x._sym
        for y in (-x, x.inverse(), primitive_root(x)[0]):
            assert "level_23" not in y._sym, (x, y)


def test_cycle_integral_accepts_at_16_or_32_intervals_and_the_winding_from_64(P23, monkeypatch):
    e2, arg = trirad.analytic._e2_reduced, trirad.analytic._arg_delta_reduced
    e2_nodes, arg_nodes = [], []
    monkeypatch.setattr(trirad.analytic, "_e2_reduced", lambda z, sigma, reduced: e2_nodes.append(z) or e2(z, sigma, reduced))
    monkeypatch.setattr(trirad.analytic, "_arg_delta_reduced", lambda z, sigma, reduced: arg_nodes.append(z) or arg(z, sigma, reduced))
    counts = []
    for x in _round_classes(P23):
        e2_nodes.clear()
        assert cycle_integral_23(x).residual < 1e-10, x
        counts.append(len(e2_nodes))
        assert len(set(e2_nodes)) == len(e2_nodes), x  # no node evaluated twice
        arg_nodes.clear()
        winding_residual_23(x)
        assert len(arg_nodes) >= 65, x
    # 7 of the 21 round classes accept at 16 intervals and 14 at 32
    assert sorted(counts) == [17] * 7 + [33] * 14
    # with Delta's phase held at 0 every step passes the pi/2 test at 16 or 32 intervals, yet the winding reads 65 nodes
    monkeypatch.setattr(trirad.analytic, "_arg_delta_reduced", lambda z, sigma, reduced: arg_nodes.append(z) or 0.0)
    for x in _round_classes(P23):
        arg_nodes.clear()
        winding_residual_23(x)
        assert len(arg_nodes) == 65, x
