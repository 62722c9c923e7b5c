"""The record contract every certificate and term type keeps: fields read by
name, positional and keyword construction with trailing defaults, no
assignment or deletion, == only within one exact type, hash over the fields,
no order, and the repr Name(field=value, ...)."""

import copy
import itertools
import pickle

import pytest

from certalg.certlists import DecTotalOrder, SortResult
from certalg.cli import _render
from certalg.eqprover import (Apply, NatConst, Neg, NormalForm, PowSym,
                              UnitConst, Var)
from certalg.euclid import (BezoutCertificate, DividesWitness, FactorEntry,
                            PrattCertificate, PrimalityCert, Residue)
from certalg.factorization import FactorizationData
from certalg.fractions import Fraction
from certalg.polynomials import Poly
from certalg.structures import (YES, Decision, DSet, Kind, LawReport,
                                StructureInstance, _Law)

DSET = DSet("bits", max, sorted, (0, 1), None)

# (type, field names, values, repr recorded when the records were dataclasses)
CASES = [
    (Decision, ("holds", "evidence"), (True, 5), "Decision(holds=True, evidence=5)"),
    (DSet, ("name", "eq", "sample", "enumeration", "variants"), ("bits", max, sorted, (0, 1), None),
     "DSet(name='bits', eq=<built-in function max>, sample=<built-in function sorted>, "
     "enumeration=(0, 1), variants=None)"),
    (StructureInstance, ("kind", "base", "ops", "name"), (Kind.MONOID, DSET, {"op": max}, "m"),
     "StructureInstance(kind=<Kind.MONOID: 'Monoid'>, base=" + repr(DSET)
     + ", ops={'op': <built-in function max>}, name='m')"),
    (LawReport, ("kind", "cases", "failures"), (Kind.MAGMA, 3, (("assoc", (1,)),)),
     "LawReport(kind=<Kind.MAGMA: 'Magma'>, cases=3, failures=(('assoc', (1,)),))"),
    (_Law, ("name", "sample_arity", "pred", "uses_variant"), ("n", 1, max, True),
     "_Law(name='n', sample_arity=1, pred=<built-in function max>, uses_variant=True)"),
    (DividesWitness, ("divisor", "dividend", "quotient"), (2, 6, 3),
     "DividesWitness(divisor=2, dividend=6, quotient=3)"),
    (BezoutCertificate, ("a", "b", "g", "u", "v", "qa", "qb"), (12, 8, 4, 1, -1, 3, 2),
     "BezoutCertificate(a=12, b=8, g=4, u=1, v=-1, qa=3, qb=2)"),
    (PrattCertificate, ("base", "factors"), (3, ((2, 1, None),)),
     "PrattCertificate(base=3, factors=((2, 1, None),))"),
    (PrimalityCert, ("subject", "verdict", "witness", "pratt"),
     (6, "composite", DividesWitness(2, 6, 3), None),
     "PrimalityCert(subject=6, verdict='composite', "
     "witness=DividesWitness(divisor=2, dividend=6, quotient=3), pratt=None)"),
    (Residue, ("modulus", "value"), (7, 3), "Residue(modulus=7, value=3)"),
    (Fraction, ("num", "den"), (3, 4), "Fraction(num=3, den=4)"),
    (Poly, ("ring", "terms"), ("ring", ((1, 2),)), "Poly(terms=((1, 2),))"),
    (FactorizationData, ("unit", "entries"), (-1, ((2, 1, None),)),
     "FactorizationData(unit=-1, entries=((2, 1, None),))"),
    (DecTotalOrder, ("base", "leq", "native_int"), (DSET, max, True),
     "DecTotalOrder(base=" + repr(DSET) + ", leq=<built-in function max>, native_int=True)"),
    (SortResult, ("ys", "ord_cert", "perm"), ((1,), (YES,), (0,)),
     "SortResult(ys=(1,), ord_cert=(Decision(holds=True, evidence=None),), perm=(0,))"),
    (Var, ("name",), ("x",), "Var(name='x')"),
    (NatConst, ("value",), (3,), "NatConst(value=3)"),
    (UnitConst, (), (), "UnitConst()"),
    (PowSym, ("name", "exp"), ("x", 2), "PowSym(name='x', exp=2)"),
    (Neg, ("operand",), (Var("x"),), "Neg(operand=Var(name='x'))"),
    (Apply, ("op", "left", "right"), ("+", Var("x"), NatConst(1)),
     "Apply(op='+', left=Var(name='x'), right=NatConst(value=1))"),
    (NormalForm, ("theory", "body"), ("monoid", ("x",)),
     "NormalForm(theory='monoid', body=('x',))"),
]
IDS = [case[0].__name__ for case in CASES]


def _hashable(values):
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_repr_fields_and_keyword_construction(cls, names, values, text):
    rec = cls(*values)
    assert repr(rec) == text
    assert all(getattr(rec, name) is value for name, value in zip(names, values))
    by_name = cls(**dict(zip(names, values)))
    assert by_name == rec and not by_name != rec and repr(by_name) == text
    compared = values[1:] if cls is Poly else values  # Poly leaves its ring out
    if _hashable(compared):
        assert hash(by_name) == hash(rec) == hash(compared)
    else:
        with pytest.raises(TypeError):
            hash(rec)
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[:-1], no_such_field=1)


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, names, values, text):
    rec = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        assert getattr(rec, name) is values[names.index(name)]
    assert repr(rec) == text


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_records_are_unordered(cls, names, values, text):
    rec = cls(*values)
    for compare in (lambda a, b: a < b, lambda a, b: a <= b,
                    lambda a, b: a > b, lambda a, b: a >= b):
        with pytest.raises(TypeError):
            compare(rec, rec)
    with pytest.raises(TypeError):
        sorted([cls(*values), cls(*values)])


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_copies_and_pickles_are_equal_records(cls, names, values, text):
    rec = cls(*values)
    for other in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(other) is cls and other == rec and repr(other) == text


def test_fraction_has_no_tuple_order():
    with pytest.raises(TypeError):
        Fraction(1, 2) < Fraction(2, 5)


def test_equality_needs_the_same_exact_type():
    assert Residue(7, 3) != Fraction(7, 3) and Fraction(7, 3) != Residue(7, 3)
    assert Var("x") != ("x",) and ("x",) != Var("x")
    assert Residue(7, 3) == Residue(7, 3) and Residue(7, 3) != Residue(7, 4)
    for cls, _, values, _ in CASES:
        assert cls(*values) != values and values != cls(*values)
    for (a, names, values, _), (b, others, _, _) in itertools.permutations(CASES, 2):
        if len(names) == len(others):
            assert a(*values) != b(*values) and not a(*values) == b(*values), (a, b)


def test_trailing_defaults():
    assert Decision(True) == Decision(True, None) and Decision(True).evidence is None
    assert DSet("d", max, sorted) == DSet("d", max, sorted, None, None)
    base = DSet("d", max, sorted)
    assert StructureInstance(Kind.MAGMA, base, {}).name == ""
    assert _Law("n", 1, max).uses_variant is False
    assert PrimalityCert(7, "prime") == PrimalityCert(7, "prime", None, None)
    assert DecTotalOrder(base, max).native_int is False
    assert Poly(None).terms == ()
    assert PrimalityCert(verdict="prime", subject=7, pratt=None).witness is None
    with pytest.raises(TypeError):
        Residue(7)
    with pytest.raises(TypeError):
        Fraction(den=4)


def test_poly_leaves_its_ring_out_of_eq_hash_and_repr():
    p, q = Poly("one ring", ((1, 2),)), Poly("another", ((1, 2),))
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q) == "Poly(terms=((1, 2),))"
    assert p.ring == "one ring" and p != Poly("one ring", ((2, 2),))


def test_decision_verdicts_and_truth():
    assert Decision.yes(4) == Decision(True, 4) and Decision.no("r") == Decision(False, "r")
    assert bool(Decision.yes()) and not Decision.no()
    assert type(Decision.yes()) is Decision and Decision.no().evidence is None


def test_factor_entry_stays_a_tuple():
    entry = FactorEntry(2, 3, None)
    assert entry == (2, 3, None) and isinstance(entry, tuple)
    prime, multiplicity, cert = entry
    assert (prime, multiplicity, cert) == (entry.prime, entry.multiplicity, entry.cert)
    assert repr(entry) == "FactorEntry(prime=2, multiplicity=3, cert=None)"


def test_json_writes_a_residue_through_the_cli_default():
    assert _render(True, {"r": Residue(7, 3)}, None) == '{"r": {"value": 3, "modulus": 7}}'
