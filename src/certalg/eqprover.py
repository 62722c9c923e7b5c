"""The term language, its grammar, and equation proving by normalization.

Terms are Var, NatConst, UnitConst (the monoid identity, written e),
PowSym (the polynomial grammar's x^k), Neg and Apply (a binary operator).
parse_expr reads the CLI's ASCII grammar straight into these records, in
one of MODES, and format_expr prints them back. eval_in is the one fold
over a term, given an ops table for the operators and a leaf map for the
rest: the normal forms, the three models and the CLI's integers,
fractions, residues and polynomials are all calls of it.

monoid: terms over one associative op with identity normalize to words.
semiring: non-commutative multiplication, commutative addition, natural
number coefficients; normal forms are coefficiented word sums.
commsemiring: commutative multiplication; normal forms are coefficiented
monomial sums (monomials sorted by degree then lexicographically).

prove_eq answers Yes exactly when both normal forms coincide, which for
these free theories is provability. The products of one normalize call
build at most MAX_TERM_PAIRS term pairs, spent from one errors.Fuel; past
it, InvalidInputError is raised. eval_nat, eval_word and eval_mat2 are
models in which a refuted equation can be checked to fail.
"""

from __future__ import annotations

import operator
import re
from functools import partial

from .errors import Fuel, ParseError, StructuralError
from .numbers import _literal
from .kernel import Decision, Record


class Var(Record):
    __slots__ = ("name",)


class NatConst(Record):
    __slots__ = ("value",)


class UnitConst(Record):
    """The monoid identity symbol."""

    __slots__ = ()


class PowSym(Record):
    __slots__ = ("name", "exp")


class Neg(Record):
    __slots__ = ("operand",)


class Apply(Record):
    """op names a binary operator; left and right are terms."""

    __slots__ = ("op", "left", "right")


Term = Var | NatConst | UnitConst | PowSym | Neg | Apply

# ---------------------------------------------------------------------------
# grammar

MODES = ("int", "frac", "poly", "term")

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}

# Bounds both the parser's recursion through parentheses and negation and
# the depth of the tree it builds, which eval_in walks.
MAX_DEPTH = 100


# \d is str.isdecimal and \w is str.isalnum or "_", character for character
_DIGITS = re.compile(r"\d+")
_NAME = re.compile(r"\w+")


def _tokenize(text: str):
    toks, i = [], 0
    while i < len(text):
        ch, j = text[i], i + 1
        # isdecimal, not isdigit: int() rejects digits such as '²'
        if ch.isdecimal():
            j = _DIGITS.match(text, i).end()
            toks.append(("int", _literal(text[i:j], i), i))
        elif ch.isalpha() or ch == "_":
            j = _NAME.match(text, i).end()
            toks.append(("ident", text[i:j], i))
        elif ch in "+-*/^()":
            toks.append((ch, ch, i))
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", i)
        i = j
    toks.append(("end", None, len(text)))
    return toks


class _Parser:
    def __init__(self, toks, mode):
        self.toks = toks
        self.i = 0
        self.mode = mode
        self.nesting = 0

    def enter(self, pos):
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", pos)

    def peek(self):
        return self.toks[self.i]

    def take(self):
        self.i += 1
        return self.toks[self.i - 1]

    def expr(self, prec=1):
        """Operators binding at least as tightly as prec, left to right."""
        node = self.unary()
        while True:
            k, _, pos = self.peek()
            if _PRECEDENCE.get(k, 0) < prec:
                return node
            if k == "-" and self.mode == "term":
                raise ParseError("subtraction is outside this grammar", pos)
            if k == "/" and self.mode != "frac":
                raise ParseError("division is only available for fractions", pos)
            self.i += 1
            node = Apply(k, node, self.expr(_PRECEDENCE[k] + 1))

    def unary(self):
        k, _, pos = self.peek()
        if k != "-":
            return self.atom()
        if self.mode == "term":
            raise ParseError("negation is outside this grammar", pos)
        self.i += 1
        self.enter(pos)
        node = Neg(self.unary())
        self.nesting -= 1
        return node

    def atom(self):
        k, v, pos = self.take()
        if k == "int":
            return NatConst(v)
        if k == "ident" and self.mode == "poly":
            if v != "x":
                raise ParseError("the polynomial variable is x", pos)
            if self.peek()[0] != "^":
                return PowSym("x", 1)
            self.i += 1
            k, v, pos = self.take()
            if k != "int":
                raise ParseError("exponent must be a number", pos)
            return PowSym("x", v)
        if k == "ident" and self.mode == "term":
            return UnitConst() if v == "e" else Var(v)
        if k == "ident":
            raise ParseError("names are not allowed here", pos)
        if k != "(":
            raise ParseError(f"unexpected {k!r}", pos)
        self.enter(pos)
        node = self.expr()
        k, _, pos = self.take()
        if k != ")":
            raise ParseError(f"expected ')', found {k!r}", pos)
        self.nesting -= 1
        return node


def _tree_depth(node) -> int:
    deepest, stack = 0, [(node, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, Apply):
            stack += ((node.left, depth + 1), (node.right, depth + 1))
        elif isinstance(node, Neg):
            stack.append((node.operand, depth + 1))
    return deepest


def parse_expr(text: str, mode: str) -> Term:
    if mode not in MODES:
        raise StructuralError(f"unknown expression mode {mode!r}")
    parser = _Parser(_tokenize(text), mode)
    node = parser.expr()
    k, _, pos = parser.peek()
    if k != "end":
        raise ParseError("trailing input", pos)
    if _tree_depth(node) > MAX_DEPTH:
        raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", 0)
    return node


# ---------------------------------------------------------------------------
# evaluation: one fold


def eval_in(ops, leaf, node):
    """Evaluate a term bottom-up: ops maps each binary operator, and "neg",
    to its function; leaf maps every other record into the carrier. An
    operator is looked up before its operands are evaluated, so one that
    ops lacks raises KeyError at the first such node, an operator before
    its operands and left before right. Dispatch is on the exact record
    type, the fastest test."""
    if type(node) is Apply:
        return ops[node.op](eval_in(ops, leaf, node.left), eval_in(ops, leaf, node.right))
    if type(node) is Neg:
        return ops["neg"](eval_in(ops, leaf, node.operand))
    return leaf(node)


# Printing is a fold too: each node prints as (text, binding), the binding
# being its operator's precedence, 3 for a negation and 4 for a leaf. The
# operators associate to the left, so a right operand binding as loosely as
# its operator gets parentheses too.
def _infix(op, left, right):
    (lt, lb), (rt, rb), b = left, right, _PRECEDENCE[op]
    return f"{f'({lt})' if lb < b else lt} {op} {f'({rt})' if rb <= b else rt}", b


def _print_leaf(node):
    if isinstance(node, NatConst):
        return str(node.value), 4
    if isinstance(node, PowSym):
        return (node.name if node.exp == 1 else f"{node.name}^{node.exp}"), 4
    return ("e" if isinstance(node, UnitConst) else node.name), 4


_PRINT = {op: partial(_infix, op) for op in _PRECEDENCE}
_PRINT["neg"] = lambda t: (f"-({t[0]})" if t[1] <= 2 else f"-{t[0]}", 3)


def format_expr(node) -> str:
    """Canonical reprint. For a term t that parse_expr built in some mode,
    parse_expr(format_expr(t), mode) rebuilds t structurally. A term built in
    code may not come back: NatConst(-3) prints -3, which parses back as
    Neg(NatConst(3)), and Var("e") prints e, which term mode reads as UnitConst()."""
    return eval_in(_PRINT, _print_leaf, node)[0]


# ---------------------------------------------------------------------------
# normal forms

# (x+y)^n has 2^n words in the semiring theory. The products of one normalize
# call, or of one `poly` expression, build at most this many term pairs, or
# are refused rather than expanded until memory runs out: a 16-factor product
# of binomials takes 2^17 - 4 and answers, a 17-factor one 2^18 - 4.
MAX_TERM_PAIRS = 3 << 16


class NormalForm(Record):
    __slots__ = ("theory", "body")

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


def _letter(t: Term) -> tuple:
    if isinstance(t, Var):
        return (t.name,)
    if isinstance(t, UnitConst):
        return ()
    raise StructuralError("numerals do not belong to the monoid theory")


def _monomial(t: Term) -> dict:
    """Polynomial with natural coefficients, keyed by word (or by sorted
    monomial, once a commutative product sorts it)."""
    if isinstance(t, Var):
        return {(t.name,): 1}
    if isinstance(t, NatConst):
        if t.value < 0:
            raise StructuralError("semiring constants are naturals")
        return {(): t.value} if t.value else {}
    if isinstance(t, UnitConst):
        raise StructuralError("the identity symbol belongs to the monoid theory")
    raise StructuralError(f"unsupported term {t!r}")


def _poly_add(lp: dict, rp: dict) -> dict:
    out = dict(lp)
    for k, c in rp.items():
        out[k] = out.get(k, 0) + c
    return out


def _too_large() -> str:
    return f"expression too large: its products take more than {MAX_TERM_PAIRS} term pairs"


def _poly_mul(commutative: bool, fuel: Fuel):
    def mul(lp: dict, rp: dict) -> dict:
        fuel.spend(len(lp) * len(rp), _too_large)
        out = {}
        for k1, c1 in lp.items():
            for k2, c2 in rp.items():
                key = tuple(sorted(k1 + k2)) if commutative else k1 + k2
                out[key] = out.get(key, 0) + c1 * c2
        return out

    return mul


_WORDS = {"*": operator.add}


def normalize(theory: str, t: Term) -> NormalForm:
    if theory not in ("monoid", "semiring", "commsemiring"):
        raise StructuralError(f"unknown theory {theory!r}")
    try:
        if theory == "monoid":
            return NormalForm(theory, eval_in(_WORDS, _letter, t))
        mul = _poly_mul(theory == "commsemiring", Fuel(MAX_TERM_PAIRS))
        poly = eval_in({"+": _poly_add, "*": mul}, _monomial, t)
    except KeyError as e:  # the first operator the theory's table lacks
        where = "monoid theory" if theory == "monoid" else "semiring theories"
        raise StructuralError(f"operator {e.args[0]!r} outside the {where}") from None
    if theory == "commsemiring":
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


# ---------------------------------------------------------------------------
# evaluation models: an operator outside a model's table raises KeyError, as
# a name outside env does


def _model_leaf(into: str, numeral, unit, env: dict, t: Term):
    """A model's leaf map: env maps each Var's name, numeral(n) is the value
    of NatConst(n), n a natural, and unit that of UnitConst(). A leaf the
    model gives no value (None) raises StructuralError."""
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, NatConst) and numeral is not None:
        if t.value < 0:
            raise StructuralError("semiring constants are naturals")
        return numeral(t.value)
    if isinstance(t, UnitConst) and unit is not None:
        return unit
    raise StructuralError(f"cannot evaluate {t!r} into {into}")


def eval_nat(t: Term, env: dict) -> int:
    return eval_in(_NATS, partial(_model_leaf, "naturals", int, None, env), t)


def eval_word(t: Term, env: dict) -> tuple:
    return eval_in(_WORDS, partial(_model_leaf, "words", None, (), env), t)


def _mat_add(a, b):
    return ((a[0][0] + b[0][0], a[0][1] + b[0][1]),
            (a[1][0] + b[1][0], a[1][1] + b[1][1]))


def _mat_mul(a, b):
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]))


_NATS = {"+": operator.add, "*": operator.mul}
_MATS = {"+": _mat_add, "*": _mat_mul}

# small non-commuting generators for refuting non-commutative claims
MAT_CANDIDATES = (
    ((1, 0), (0, 1)),
    ((1, 1), (0, 1)),
    ((1, 0), (1, 1)),
    ((0, 1), (0, 0)),
    ((0, 0), (1, 0)),
    ((1, 0), (0, 0)),
    ((2, 0), (0, 1)),
)


def eval_mat2(t: Term, env: dict):
    """Evaluate into 2x2 natural matrices, a semiring where multiplication
    does not commute; the numeral n is n times the identity."""
    leaf = partial(_model_leaf, "matrices", lambda n: ((n, 0), (0, n)), None, env)
    return eval_in(_MATS, leaf, t)
