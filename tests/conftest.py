import decimal
import random
from functools import lru_cache

import pytest
import sympy

from trirad.group import Element, get_params
from trirad.words import GroupWord, Syllable

# the coprime pairs exercised throughout
PQ_LIST = [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5), (5, 7)]


# the fields whose float evaluation is checked against 60-digit values: the seven
# pairs, and larger ones where the float sums cancel more
FLOAT_PQ = PQ_LIST + [(7, 11), (13, 17), (2, 31), (2, 101), (31, 37)]


@lru_cache(maxsize=None)
def _basis60(p, q):
    """alpha^i beta^j as Decimals from sympy's 2cos(pi/n) at 60 digits, with 80 digits of working precision."""
    alpha, beta = (decimal.Decimal(str((2 * sympy.cos(sympy.pi / n)).evalf(60))) for n in (p, q))
    with decimal.localcontext(prec=80):  # ** would raise on 0^0 at p = 2
        powers = [[decimal.Decimal(1)], [decimal.Decimal(1)]]
        for g, pw in ((alpha, powers[0]), (beta, powers[1])):
            while len(pw) < q:
                pw.append(pw[-1] * g)
        return [[a * b for b in powers[1]] for a in powers[0]]


def value60(x):
    """The exact value of a ring element x to about 60 digits, as a Decimal; 80-digit arithmetic."""
    basis = _basis60(x.field.p, x.field.q)
    total = decimal.Decimal(0)
    with decimal.localcontext(prec=80):
        for i, row in enumerate(x.coeffs):
            for j, a in enumerate(row):
                if a:
                    total += decimal.Decimal(a.numerator) / a.denominator * basis[i][j]
    return total


def random_element(params, rng, max_syllables=6, min_syllables=1):
    """Random normal-form element with alternating syllables."""
    gen = rng.choice("SU")
    sylls = []
    for _ in range(rng.randint(min_syllables, max_syllables)):
        order = params.p if gen == "S" else params.q
        sylls.append(Syllable(gen, rng.randint(1, order - 1)))
        gen = "U" if gen == "S" else "S"
    return Element(params, GroupWord(rng.choice((1, -1)), tuple(sylls)))


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture(scope="session")
def P23():
    return get_params(2, 3)


@pytest.fixture(scope="session")
def P25():
    return get_params(2, 5)


@pytest.fixture(scope="session")
def P34():
    return get_params(3, 4)
