import random

import pytest

from trirad.group import Element, get_params
from trirad.words import GroupWord, Syllable

# the coprime pairs exercised throughout
PQ_LIST = [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5), (5, 7)]


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
