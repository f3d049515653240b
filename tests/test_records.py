"""The frozen records: construction, equality, hash, repr, immutability and pickling.

Each record is a `typing.NamedTuple`; these tests pin the behaviour it shares
with a frozen dataclass of the same fields (built here, in the test), and
check that the tuple operators that could give a silent wrong answer raise.
"""

import dataclasses
import pickle
from fractions import Fraction

import pytest

from trirad.analytic import (
    ClassEntry,
    ClassTable,
    CycleIntegralResult,
    DistributionStats,
    GeodesicData,
    distribution_stats,
    enumerate_classes,
)
from trirad.exactnum import MinPoly, SignCertificate
from trirad.group import Element, LiftedElement, Matrix2, get_params
from trirad.linking import LinkingReport
from trirad.symbols import EpsilonCoding, SymbolReport
from trirad.words import GroupWord, Syllable


def _cases():
    """name -> (record, a record of the same type with other values, its exact repr)."""
    P = get_params(2, 3)
    S, U = Element.generator(P, "S"), Element.generator(P, "U")
    w = GroupWord(-1, (Syllable("S", 1), Syllable("U", 2)))
    row = ClassEntry(GroupWord(1, (Syllable("S", 1), Syllable("U", 1))), -3.0, 6, 0, 1.5)
    cases = [
        (MinPoly(5, (-1, -1, 1)), MinPoly(7, (-1, -2, 1, 1)), "MinPoly(n=5, coeffs=(-1, -1, 1))"),
        (SignCertificate(-1, 53), SignCertificate(-1, 64), "SignCertificate(value=-1, precision_bits=53)"),
        (P.S, P.U, "Matrix2(a=0, b=-1, c=1, d=0)"),
        (LiftedElement(S, 2), LiftedElement(U, 2), "LiftedElement(el=Element(2,3: S), level=2)"),
        (w, GroupWord(1, w.syllables),
         "GroupWord(sign=-1, syllables=(Syllable(gen='S', exp=1), Syllable(gen='U', exp=2)))"),
        (EpsilonCoding((-1, 1)), EpsilonCoding((1, -1)), "EpsilonCoding(epsilons=(-1, 1))"),
        (SymbolReport(0, 0, Fraction(3), 0, 0, "hyperbolic", 1, 1),
         SymbolReport(-3, 0, Fraction(3), 0, 0, "hyperbolic", 1, 1),
         "SymbolReport(psi=0, Psi=0, Phi=Fraction(3, 1), Psi_h=0, Psi_e=0, classification='hyperbolic', "
         "asai_sign=1, trace_sign=1)"),
        (LinkingReport(1, "Psi_e", 0, Fraction(0), 0, 1, None, None),
         LinkingReport(1, "Psi_e", 0, Fraction(0), 0, 1, 1, 0),
         "LinkingReport(r=1, variant='Psi_e', psi_used=0, lk_lens=Fraction(0, 1), n_gamma=0, m_gamma=1, "
         "components=None, lk_s3=None)"),
        (GeodesicData(1.5, -0.5, 2.0, ((1.0, 1.0), (0.5, 1.5)), 1.25),
         GeodesicData(1.5, -0.5, 2.0, ((1.0, 1.0), (0.5, 1.5)), 1.0),
         "GeodesicData(w=1.5, w_prime=-0.5, xi=2.0, M=((1.0, 1.0), (0.5, 1.5)), length=1.25)"),
        (CycleIntegralResult(0.25, 0, 0.25), CycleIntegralResult(0.25, 1, 0.25),
         "CycleIntegralResult(value=0.25, psi=0, residual=0.25)"),
        (ClassTable(2, 3, (row,)), ClassTable(2, 3, ()),
         "ClassTable(p=2, q=3, entries=(ClassEntry(word=GroupWord(sign=1, syllables=(Syllable(gen='S', exp=1), "
         "Syllable(gen='U', exp=1))), trace=-3.0, psi=6, Psi=0, length=1.5),))"),
        (DistributionStats(4, 0.5, 0.25, 0.125), DistributionStats(5, 0.5, 0.25, 0.125),
         "DistributionStats(count=4, fraction=0.5, reference=0.25, ks_distance=0.125)"),
    ]
    return {type(case[0]).__name__: case for case in cases}


CASES = _cases()
# a field element or a group element compares by the identity of its ring or
# group, which a fresh unpickling does not keep, so these two do not round-trip
NOT_PICKLED = {"Matrix2", "LiftedElement"}


def _twin(record_type):
    """A frozen dataclass with the record's name, fields and defaults."""
    defaults = record_type._field_defaults
    fields = [
        (f, object, dataclasses.field(default=defaults[f])) if f in defaults else (f, object)
        for f in record_type._fields
    ]
    return dataclasses.make_dataclass(record_type.__name__, fields, frozen=True)


@pytest.mark.parametrize("name", CASES)
def test_construction_by_position_and_keyword(name):
    a, _, _ = CASES[name]
    cls = type(a)
    values = dict(zip(cls._fields, (getattr(a, f) for f in cls._fields)))
    assert cls(*values.values()) == a
    assert cls(**values) == a
    assert [getattr(cls(**values), f) for f in cls._fields] == list(values.values())


def test_group_word_defaults():
    assert GroupWord() == GroupWord(1, ()) == GroupWord(sign=1) == GroupWord(syllables=())
    assert GroupWord(-1) == GroupWord(sign=-1, syllables=())
    assert GroupWord._field_defaults == {"sign": 1, "syllables": ()}
    assert all(not type(a)._field_defaults for a, _, _ in CASES.values() if type(a) is not GroupWord)


@pytest.mark.parametrize("name", CASES)
def test_equality_and_hash_match_a_frozen_dataclass(name):
    a, b, _ = CASES[name]
    cls, twin = type(a), _twin(type(a))

    def fields(r):
        return [getattr(r, f) for f in cls._fields]

    ta, tb = twin(*fields(a)), twin(*fields(b))
    assert hash(a) == hash(ta) and hash(b) == hash(tb)
    assert (a == cls(*fields(a))) is (ta == twin(*fields(a))) is True
    assert (a == b) is (ta == tb) is False
    assert (a != b) is (ta != tb) is True
    assert len({a, b, cls(*fields(a))}) == len({ta, tb, twin(*fields(a))}) == 2


@pytest.mark.parametrize("name", CASES)
def test_repr(name):
    a, _, text = CASES[name]
    assert repr(a) == text
    assert repr(a) == repr(_twin(type(a))(*(getattr(a, f) for f in type(a)._fields)))


@pytest.mark.parametrize("name", CASES)
def test_fields_are_read_only(name):
    a, b, _ = CASES[name]
    for f in type(a)._fields:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(b, f))
    assert a == CASES[name][0] and a != b


@pytest.mark.parametrize("name", sorted(set(CASES) - NOT_PICKLED))
def test_pickle_round_trip(name):
    for r in CASES[name][:2]:
        back = pickle.loads(pickle.dumps(r))
        assert type(back) is type(r) and back == r and repr(back) == repr(r)


def test_pickle_round_trip_of_an_enumerated_table():
    table = enumerate_classes(get_params(2, 3), 8)
    stats = distribution_stats(table, -1.0, 1.0)
    for r in (table.entries[-1], stats):
        back = pickle.loads(pickle.dumps(r))
        assert type(back) is type(r) and back == r
    back = pickle.loads(pickle.dumps(table))
    assert type(back) is ClassTable and back == table and back.to_rows() == table.to_rows()
    assert {(type(e), type(e.word)) for e in back.entries} == {(ClassEntry, GroupWord)}


def test_group_word_len_and_bool_count_syllables():
    assert len(GroupWord()) == len(GroupWord(-1)) == 0
    assert not GroupWord() and not GroupWord(-1)
    w = GroupWord(1, (Syllable("S", 1), Syllable("U", 2), Syllable("S", 1)))
    assert len(w) == 3 and w
    assert len(GroupWord(-1, w.syllables[:1])) == 1


def test_tuple_operators_raise():
    P = get_params(2, 3)
    m = P.S
    w = GroupWord(1, (Syllable("S", 1), Syllable("U", 2)))
    for op in (lambda: m + m, lambda: 2 * m, lambda: w + w, lambda: 2 * w, lambda: w * 2):
        with pytest.raises(TypeError):
            op()
    # the defined products are untouched
    assert type(m) is Matrix2 and m * m == -P.identity_matrix
    assert w.concat(w) == GroupWord(1, w.syllables * 2)
