"""Equation proving by normalization in three free theories.

monoid: terms over one associative op with identity normalize to words.
semiring: non-commutative multiplication, commutative addition, natural
number coefficients; normal forms are coefficiented word sums.
commsemiring: commutative multiplication; normal forms are coefficiented
monomial sums (monomials sorted by degree then lexicographically).

prove_eq answers Yes exactly when both normal forms coincide, which for
these free theories is provability. A product whose factors' term counts
multiply past MAX_PRODUCT_TERMS, or a sum whose normal form has more terms
than that, raises InvalidInputError. eval_nat, eval_word and eval_mat2 are
models in which a refuted equation can be checked to fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import InvalidInputError, StructuralError
from .structures import Decision


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class NatConst:
    value: int


@dataclass(frozen=True, slots=True)
class UnitConst:
    """The monoid identity symbol."""


@dataclass(frozen=True, slots=True)
class Apply:
    op: str
    left: "Term"
    right: "Term"


Term = Union[Var, NatConst, UnitConst, Apply]

THEORIES = ("monoid", "semiring", "commsemiring")

# (x+y)^n has 2^n words in the semiring theory; past this many term pairs a
# product, and past this many terms a sum, is refused rather than expanded
# until memory runs out
MAX_PRODUCT_TERMS = 1 << 16


@dataclass(frozen=True)
class NormalForm:
    theory: str
    body: tuple

    def __str__(self):
        if self.theory == "monoid":
            return "*".join(self.body) if self.body else "e"
        parts = []
        for key, coeff in self.body:
            word = "*".join(key)
            if not word:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(word)
            else:
                parts.append(f"{coeff}*{word}")
        return " + ".join(parts) if parts else "0"


def _check_theory(theory: str):
    if theory not in THEORIES:
        raise StructuralError(f"unknown theory {theory!r}")


def _monoid_word(t: Term) -> tuple:
    if isinstance(t, Var):
        return (t.name,)
    if isinstance(t, UnitConst):
        return ()
    if isinstance(t, Apply):
        if t.op != "*":
            raise StructuralError(f"operator {t.op!r} outside the monoid theory")
        return _monoid_word(t.left) + _monoid_word(t.right)
    raise StructuralError("numerals do not belong to the monoid theory")


def _poly(t: Term, commutative: bool) -> dict:
    """Polynomial with natural coefficients, keyed by word or by sorted
    monomial depending on commutativity."""
    if isinstance(t, Var):
        return {(t.name,): 1}
    if isinstance(t, NatConst):
        if t.value < 0:
            raise StructuralError("semiring constants are naturals")
        return {(): t.value} if t.value else {}
    if isinstance(t, UnitConst):
        raise StructuralError("the identity symbol belongs to the monoid theory")
    if isinstance(t, Apply):
        lp = _poly(t.left, commutative)
        rp = _poly(t.right, commutative)
        if t.op == "+":
            out = dict(lp)
            for k, c in rp.items():
                out[k] = out.get(k, 0) + c
            if len(out) > MAX_PRODUCT_TERMS:
                raise InvalidInputError(
                    f"normal form too large: a sum of {len(lp)} and {len(rp)} terms "
                    f"has more than {MAX_PRODUCT_TERMS} terms")
            return out
        if t.op == "*":
            if len(lp) * len(rp) > MAX_PRODUCT_TERMS:
                raise InvalidInputError(
                    f"normal form too large: a product of {len(lp)} by {len(rp)} terms "
                    f"makes more than {MAX_PRODUCT_TERMS} term pairs")
            out = {}
            for k1, c1 in lp.items():
                for k2, c2 in rp.items():
                    key = tuple(sorted(k1 + k2)) if commutative else k1 + k2
                    out[key] = out.get(key, 0) + c1 * c2
            return out
        raise StructuralError(f"operator {t.op!r} outside the semiring theories")
    raise StructuralError(f"unsupported term {t!r}")


def normalize(theory: str, t: Term) -> NormalForm:
    _check_theory(theory)
    if theory == "monoid":
        return NormalForm("monoid", _monoid_word(t))
    commutative = theory == "commsemiring"
    poly = _poly(t, commutative)
    if commutative:
        body = tuple(sorted(poly.items(), key=lambda kv: (len(kv[0]), kv[0])))
    else:
        body = tuple(sorted(poly.items(), key=lambda kv: kv[0]))
    return NormalForm(theory, body)


def prove_eq(theory: str, lhs: Term, rhs: Term) -> Decision:
    nl = normalize(theory, lhs)
    nr = normalize(theory, rhs)
    if nl == nr:
        return Decision.yes((nl, nr))
    return Decision.no((nl, nr))


def term_vars(t: Term) -> set:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Apply):
        return term_vars(t.left) | term_vars(t.right)
    return set()


# ---------------------------------------------------------------------------
# evaluation models


def eval_nat(t: Term, env: dict) -> int:
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, NatConst):
        return t.value
    if isinstance(t, Apply):
        l, r = eval_nat(t.left, env), eval_nat(t.right, env)
        return l + r if t.op == "+" else l * r
    raise StructuralError(f"cannot evaluate {t!r} into naturals")


def eval_word(t: Term, env: dict) -> tuple:
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, UnitConst):
        return ()
    if isinstance(t, Apply) and t.op == "*":
        return eval_word(t.left, env) + eval_word(t.right, env)
    raise StructuralError(f"cannot evaluate {t!r} into words")


def _mat_add(a, b):
    return ((a[0][0] + b[0][0], a[0][1] + b[0][1]),
            (a[1][0] + b[1][0], a[1][1] + b[1][1]))


def _mat_mul(a, b):
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]))


_MAT_ZERO = ((0, 0), (0, 0))
_MAT_ONE = ((1, 0), (0, 1))

# small non-commuting generators for refuting non-commutative claims
MAT_CANDIDATES = (
    _MAT_ONE,
    ((1, 1), (0, 1)),
    ((1, 0), (1, 1)),
    ((0, 1), (0, 0)),
    ((0, 0), (1, 0)),
    ((1, 0), (0, 0)),
    ((2, 0), (0, 1)),
)


def eval_mat2(t: Term, env: dict):
    """Evaluate into 2x2 natural matrices, a semiring where multiplication
    does not commute."""
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, NatConst):
        acc = _MAT_ZERO
        for _ in range(t.value):
            acc = _mat_add(acc, _MAT_ONE)
        return acc
    if isinstance(t, Apply):
        l, r = eval_mat2(t.left, env), eval_mat2(t.right, env)
        return _mat_add(l, r) if t.op == "+" else _mat_mul(l, r)
    raise StructuralError(f"cannot evaluate {t!r} into matrices")
