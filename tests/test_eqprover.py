"""Equational provers by normalization and their soundness models."""

import functools
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import certalg
from certalg import eqprover
from certalg.errors import InvalidInputError, StructuralError
from certalg.eqprover import (MAT_CANDIDATES, Var, eval_mat2, eval_nat, eval_word,
                              normalize, prove_eq)
from eq_corpus import CORPUS, add, e, mul, nat, term_vars, x, y, z


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


# The messages reach the user: `prove` prints them with exit 6. Each term is
# refused at its first offending node, read left to right with an operator
# before its operands ("1 + x" in the monoid theory names the "+").
@pytest.mark.parametrize("theory,lhs,message", [
    ("monoid", add(x, y), "operator '+' outside the monoid theory"),
    ("monoid", nat(2), "numerals do not belong to the monoid theory"),
    ("monoid", add(nat(1), x), "operator '+' outside the monoid theory"),
    ("semiring", mul(e, x), "the identity symbol belongs to the monoid theory"),
    ("commsemiring", add(x, nat(-1)), "semiring constants are naturals"),
    ("grouplike", x, "unknown theory 'grouplike'"),
], ids=["plus-in-monoid", "numeral-in-monoid", "plus-before-numeral", "unit-in-semiring",
        "negative-numeral", "unknown-theory"])
def test_prover_error_texts_are_pinned(theory, lhs, message):
    with pytest.raises(StructuralError) as exc:
        prove_eq(theory, lhs, x)
    assert str(exc.value) == message


def test_one_normalize_call_spends_one_fuel_of_term_pairs(monkeypatch):
    monkeypatch.setattr(eqprover, "MAX_TERM_PAIRS", 4)
    four = mul(add(x, y), add(z, nat(1)))
    assert len(normalize("commsemiring", four).body) == 4
    # the same call's next product, of 4 more pairs, passes the limit
    with pytest.raises(InvalidInputError, match="too large"):
        normalize("commsemiring", mul(four, x))
    with pytest.raises(InvalidInputError, match="too large"):
        normalize("semiring", add(four, mul(x, y)))
    # sums spend nothing: a sum of more monomials than the limit answers
    many = functools.reduce(add, map(Var, "abcdefgh"))
    assert len(normalize("commsemiring", many).body) == 8


def test_hang_guard_mat2_reads_a_numeral_in_one_step():
    # a child process, so that reading 10^12 by repeated addition fails the
    # test after 5 s
    code = ("from certalg.eqprover import NatConst, eval_mat2\n"
            "print(eval_mat2(NatConst(10**12), {}))\n")
    env = dict(os.environ)
    src = str(Path(certalg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"(({10**12}, 0), (0, {10**12}))\n"


@pytest.mark.parametrize("model", [eval_nat, eval_mat2], ids=["nat", "mat2"])
def test_semiring_models_refuse_a_negative_numeral(model):
    # the semiring theories have natural numerals, as normalize says too
    with pytest.raises(StructuralError) as exc:
        model(add(nat(-1), x), {})
    assert str(exc.value) == "semiring constants are naturals"


def test_term_vars():
    assert term_vars(mul(x, add(y, nat(3)))) == {"x", "y"}
    assert term_vars(e) == set()
