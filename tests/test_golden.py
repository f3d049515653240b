"""A golden digest of the symbol layer's outputs on seeded random words.

The digest was taken on the code before the one-pass word layer (the stack
`normal_form`, inverses normalized after the fact, Phi as a sum of three
Fractions) by running `_payload()` there and hashing it as `_digest` does.
Any change to a normal form, a symbol, a report or the JSON rendering of one
changes it.
"""

import hashlib
import json
import random

from conftest import PQ_LIST, random_element
from trirad.errors import PreconditionError
from trirad.group import Element, get_params
from trirad.linking import linking_report
from trirad.symbols import dedekind_Phi, euler_cocycle, rademacher_Psi, symbol_report
from trirad.words import GroupWord, Syllable, render_word

GOLDEN_SHA256 = "9cfc1fd588c2978fb2e7cfc80978825cfa8fd513858ae4baaeacb9d31d4baf1d"
PAIRS_PER_PQ = 10


def _raw_word(params, rng, length):
    """A raw word: random generators (so runs merge), exponents in [-2n, 2n] \\ {0} for G of order n."""
    sylls = []
    for _ in range(length):
        gen = rng.choice("SU")
        order = params.p if gen == "S" else params.q
        sylls.append(Syllable(gen, rng.choice([e for e in range(-2 * order, 2 * order + 1) if e])))
    return GroupWord(rng.choice((1, -1)), tuple(sylls))


def _linking(x):
    if x.classify() != "hyperbolic":
        return None
    try:
        return linking_report(x).to_dict()
    except PreconditionError as exc:
        return f"PreconditionError: {exc}"


def _payload():
    rng = random.Random(3201)
    rows = []
    for p, q in PQ_LIST:
        P = get_params(p, q)
        for _ in range(PAIRS_PER_PQ):
            x = random_element(P, rng, max_syllables=40)
            y = Element(P, _raw_word(P, rng, rng.randint(1, 40)))
            xy, inv = x * y, x.inverse()
            rows.append({
                "words": [render_word(e.word) for e in (x, y, xy, inv, x**-2, x**3)],
                "reports": [symbol_report(e).to_dict() for e in (x, y, xy, inv)],
                "linking": _linking(x),
                "euler": euler_cocycle(x, y),
                "Psi_conj_neg": [rademacher_Psi(x.conjugate(y)), rademacher_Psi(-x)],
                "Phi": [str(dedekind_Phi(e)) for e in (x, y, xy)],
            })
    return rows


def _digest(rows):
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def test_golden_digest_of_symbols_reports_and_normal_forms():
    assert _digest(_payload()) == GOLDEN_SHA256
