"""Equational provers by normalization and their soundness models."""

import itertools
import random

import pytest

from certalg import eqprover
from certalg.errors import InvalidInputError, StructuralError
from certalg.eqprover import (MAT_CANDIDATES, eval_mat2, eval_nat, eval_word,
                              normalize, prove_eq, term_vars)
from eq_corpus import CORPUS, add, e, mul, nat, x, y, z


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 60


@pytest.mark.parametrize("theory,lhs,rhs,expected",
                         CORPUS,
                         ids=[f"{t}-{i}" for i, (t, _, _, _) in enumerate(CORPUS)])
def test_corpus_verdicts(theory, lhs, rhs, expected):
    assert prove_eq(theory, lhs, rhs).holds == expected


def test_commutativity_verdict_depends_on_the_theory():
    assert prove_eq("commsemiring", mul(x, y), mul(y, x)).holds
    assert not prove_eq("semiring", mul(x, y), mul(y, x)).holds
    assert not prove_eq("monoid", mul(x, y), mul(y, x)).holds


# ================================================================
# soundness: Yes verdicts hold in concrete models
# ================================================================


def _assignments(names, pool, rng, count):
    names = sorted(names)
    for _ in range(count):
        yield {n: rng.choice(pool) for n in names}


def test_yes_verdicts_hold_under_nat_evaluation():
    rng = random.Random(11)
    pool = list(range(0, 7))
    for theory, lhs, rhs, expected in CORPUS:
        if not expected or theory == "monoid":
            continue
        names = term_vars(lhs) | term_vars(rhs)
        for env in _assignments(names, pool, rng, 25):
            assert eval_nat(lhs, env) == eval_nat(rhs, env)


def test_monoid_yes_verdicts_hold_under_word_evaluation():
    rng = random.Random(12)
    pool = [(), ("a",), ("b",), ("a", "b"), ("b", "b", "a")]
    for theory, lhs, rhs, expected in CORPUS:
        if not expected or theory != "monoid":
            continue
        names = term_vars(lhs) | term_vars(rhs)
        for env in _assignments(names, pool, rng, 25):
            assert eval_word(lhs, env) == eval_word(rhs, env)


def test_semiring_yes_verdicts_hold_in_the_matrix_model():
    rng = random.Random(13)
    for theory, lhs, rhs, expected in CORPUS:
        if not expected or theory != "semiring":
            continue
        names = term_vars(lhs) | term_vars(rhs)
        for env in _assignments(names, list(MAT_CANDIDATES), rng, 20):
            assert eval_mat2(lhs, env) == eval_mat2(rhs, env)


# ================================================================
# refuters: No verdicts have small concrete counterexamples
# ================================================================


def _word_refuter(lhs, rhs):
    names = sorted(term_vars(lhs) | term_vars(rhs))
    pool = [(), ("a",), ("b",), ("a", "a"), ("a", "b")]
    for combo in itertools.product(pool, repeat=len(names)):
        env = dict(zip(names, combo))
        if eval_word(lhs, env) != eval_word(rhs, env):
            return env
    return None


def _nat_refuter(lhs, rhs):
    names = sorted(term_vars(lhs) | term_vars(rhs))
    for combo in itertools.product(range(4), repeat=len(names)):
        env = dict(zip(names, combo))
        if eval_nat(lhs, env) != eval_nat(rhs, env):
            return env
    return None


def _mat_refuter(lhs, rhs):
    names = sorted(term_vars(lhs) | term_vars(rhs))
    for combo in itertools.product(MAT_CANDIDATES, repeat=len(names)):
        env = dict(zip(names, combo))
        if eval_mat2(lhs, env) != eval_mat2(rhs, env):
            return env
    return None


def test_no_verdicts_have_refuting_assignments():
    for theory, lhs, rhs, expected in CORPUS:
        if expected:
            continue
        if theory == "monoid":
            assert _word_refuter(lhs, rhs) is not None, (theory, lhs, rhs)
        elif theory == "commsemiring":
            assert _nat_refuter(lhs, rhs) is not None, (theory, lhs, rhs)
        else:
            # nat refutes most; the strictly-noncommutative ones need matrices
            assert (_nat_refuter(lhs, rhs) is not None
                    or _mat_refuter(lhs, rhs) is not None), (theory, lhs, rhs)


# ================================================================
# normal forms and embedding
# ================================================================


def test_monoid_normal_form_is_the_word():
    nf = normalize("monoid", mul(mul(x, e), mul(y, x)))
    assert nf.body == ("x", "y", "x")
    assert str(nf) == "x*y*x"
    assert str(normalize("monoid", e)) == "e"


def test_commsemiring_normal_form_sorts_monomials():
    nf = normalize("commsemiring", mul(add(y, nat(2)), x))
    # x*y + 2*x with monomials keyed by sorted variable tuples
    assert dict(nf.body) == {("x", "y"): 1, ("x",): 2}


def test_semiring_keeps_word_order():
    nf1 = normalize("semiring", mul(x, y))
    nf2 = normalize("semiring", mul(y, x))
    assert nf1.body != nf2.body


def test_prove_eq_decision_carries_both_normal_forms():
    d = prove_eq("monoid", mul(x, y), mul(y, x))
    nl, nr = d.evidence
    assert nl.body == ("x", "y")
    assert nr.body == ("y", "x")


def test_monoid_rejects_additive_symbols():
    with pytest.raises(StructuralError):
        prove_eq("monoid", add(x, y), x)
    with pytest.raises(StructuralError):
        prove_eq("monoid", nat(2), x)


def test_semiring_rejects_the_monoid_unit_symbol():
    with pytest.raises(StructuralError):
        prove_eq("semiring", mul(e, x), x)


def test_unknown_theory_is_rejected():
    with pytest.raises(StructuralError):
        prove_eq("grouplike", x, x)


def test_a_sum_past_the_term_bound_is_refused(monkeypatch):
    monkeypatch.setattr(eqprover, "MAX_PRODUCT_TERMS", 4)
    four = add(add(x, y), add(z, nat(1)))
    assert len(normalize("commsemiring", four).body) == 4
    assert len(normalize("commsemiring", add(four, add(x, nat(2)))).body) == 4
    with pytest.raises(InvalidInputError, match="too large"):
        normalize("commsemiring", add(four, mul(x, y)))
    with pytest.raises(InvalidInputError, match="too large"):
        normalize("semiring", add(mul(x, y), four))


def test_term_vars():
    assert term_vars(mul(x, add(y, nat(3)))) == {"x", "y"}
    assert term_vars(e) == set()
