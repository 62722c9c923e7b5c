"""Command-line front end.

Subcommands: laws, factor, egcd, isprime, residue, frac, poly, sort, pow,
prove. Expressions use an ASCII grammar: explicit *, ^ for exponents,
unsigned integer literals with sign via unary minus, division only where
fractions make sense. --json switches to a single flat JSON document, for
errors too (on stderr, parse errors included).

Integers obey the interpreter's digit limit for int <-> str conversion
(sys.get_int_max_str_digits(), 4300 by default): a longer literal is a parse
error (exit 2); a longer result is exit 7 (`pow nat-mul` refuses it upfront).
`poly` refuses (exit 7) a product with more than 2^16 term pairs over more
than 2^16 exponents. `prove` refuses (exit 7) a product of normal forms whose
term counts multiply past 2^16, and a sum whose normal form has more than
2^16 terms. `laws --budget` is at most 2^16 (exit 2).

Exit codes: 0 ok, 2 usage or parse error, 3 division by zero, 4 composite
modulus where a prime is required, 5 law failures found, 6 structural
misuse, 7 invalid input data.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from functools import lru_cache, partial

from .errors import (CompositeModulusError, InvalidInputError, ParseError,
                     StructuralError)
from .euclid import (Residue, extended_gcd, int_ring, is_prime, make_residue,
                     residue_field, residue_ring, verify_bezout)
from .numbers import (bin_add_monoid, bin_to_str, int_add_group,
                      nat_add_monoid, nat_monus_semigroup, nat_mul_monoid,
                      pos_nat_mul_monoid, power, to_bin)
from .structures import StructureInstance, check_laws, multiplicative_monoid

DEFAULT_BUDGET = 200
# check_laws draws a sample pool linear in the budget, so time and memory
# grow with it
MAX_BUDGET = 1 << 16
DEFAULT_SWEEP = 4
SEED_ENV_VAR = "CERTALG_SEED"

# the most digits int <-> str converts; 0 (no limit) before Python 3.10.7
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 1
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")


def _literal(digits: str, pos: int) -> int:
    limit = _digit_limit()
    if 0 < limit < len(digits):
        raise ParseError(f"integer literal longer than {limit} digits", pos)
    return int(digits)


# ---------------------------------------------------------------------------
# expression grammar


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class PowSym:
    name: str
    exp: int


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


Expr = object

MODES = ("int", "frac", "poly", "term")

# Bounds both the parser's recursion through parentheses and negation and
# the depth of the tree it builds, which the recursive evaluators walk.
MAX_DEPTH = 100


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        # isdecimal, not isdigit: int() rejects digits such as '²'
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(("int", _literal(text[i:j], i), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", None, n))
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

    def expect(self, kind):
        k, v, pos = self.toks[self.i]
        if k != kind:
            raise ParseError(f"expected {kind!r}, found {k!r}", pos, (kind,))
        self.i += 1
        return v

    def parse(self):
        node = self.expr()
        k, _, pos = self.peek()
        if k != "end":
            raise ParseError("trailing input", pos, ("end",))
        if _tree_depth(node) > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", 0)
        return node

    def expr(self):
        node = self.term()
        while True:
            k, _, pos = self.peek()
            if k == "+":
                self.i += 1
                node = BinOp("+", node, self.term())
            elif k == "-":
                if self.mode == "term":
                    raise ParseError("subtraction is outside this grammar", pos)
                self.i += 1
                node = BinOp("-", node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            k, _, pos = self.peek()
            if k == "*":
                self.i += 1
                node = BinOp("*", node, self.unary())
            elif k == "/":
                if self.mode not in ("frac",):
                    raise ParseError("division is only available for fractions", pos)
                self.i += 1
                node = BinOp("/", node, self.unary())
            else:
                return node

    def unary(self):
        k, _, pos = self.peek()
        if k == "-":
            if self.mode == "term":
                raise ParseError("negation is outside this grammar", pos)
            self.i += 1
            self.enter(pos)
            node = Neg(self.unary())
            self.nesting -= 1
            return node
        return self.atom()

    def atom(self):
        k, v, pos = self.peek()
        if k == "int":
            self.i += 1
            return Num(v)
        if k == "ident":
            if self.mode == "poly":
                if v != "x":
                    raise ParseError("the polynomial variable is x", pos)
                self.i += 1
                if self.peek()[0] == "^":
                    self.i += 1
                    _, ev, epos = self.peek()
                    if self.peek()[0] != "int":
                        raise ParseError("exponent must be a number", epos, ("int",))
                    self.i += 1
                    return PowSym("x", ev)
                return PowSym("x", 1)
            if self.mode == "term":
                self.i += 1
                return Sym(v)
            raise ParseError("names are not allowed here", pos)
        if k == "(":
            self.i += 1
            self.enter(pos)
            node = self.expr()
            self.expect(")")
            self.nesting -= 1
            return node
        raise ParseError(f"unexpected {k!r}", pos, ("int", "("))


def _tree_depth(node) -> int:
    deepest, stack = 0, [(node, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, BinOp):
            stack += ((node.left, depth + 1), (node.right, depth + 1))
        elif isinstance(node, Neg):
            stack.append((node.operand, depth + 1))
    return deepest


def parse_expr(text: str, mode: str) -> Expr:
    if mode not in MODES:
        raise StructuralError(f"unknown expression mode {mode!r}")
    return _Parser(_tokenize(text), mode).parse()


def _prec(node) -> int:
    if isinstance(node, BinOp):
        return 1 if node.op in "+-" else 2
    if isinstance(node, Neg):
        return 3
    return 4


def format_expr(node) -> str:
    """Canonical reprint; parse(format_expr(t)) rebuilds t structurally."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Sym):
        return node.name
    if isinstance(node, PowSym):
        return node.name if node.exp == 1 else f"{node.name}^{node.exp}"
    if isinstance(node, Neg):
        inner = format_expr(node.operand)
        if _prec(node.operand) <= 2:
            inner = f"({inner})"
        return f"-{inner}"
    left = format_expr(node.left)
    right = format_expr(node.right)
    if _prec(node.left) < _prec(node):
        left = f"({left})"
    if _prec(node.right) <= _prec(node):
        right = f"({right})"
    return f"{left} {node.op} {right}"


# ---------------------------------------------------------------------------
# evaluation: one fold over a ring's ops table


def eval_in(ops, leaf, node):
    """Evaluate an expression tree through ops' add, neg, mul and inv:
    a - b is add(a, neg(b)) and a / b is mul(a, inv(b)). leaf maps the
    Num, PowSym and Sym nodes into the carrier."""
    if isinstance(node, Neg):
        return ops["neg"](eval_in(ops, leaf, node.operand))
    if isinstance(node, BinOp):
        l, r = eval_in(ops, leaf, node.left), eval_in(ops, leaf, node.right)
        if node.op == "+":
            return ops["add"](l, r)
        if node.op == "-":
            return ops["add"](l, ops["neg"](r))
        if node.op == "*":
            return ops["mul"](l, r)
        return ops["mul"](l, ops["inv"](r))
    return leaf(node)


def _int_leaf(node) -> int:
    if isinstance(node, Num):
        return node.value
    raise StructuralError(f"cannot evaluate {node!r} as a number")


def _poly_leaf(node):
    from .polynomials import mk_poly
    term = (1, node.exp) if isinstance(node, PowSym) else (_int_leaf(node), 0)
    return mk_poly(int_ring(), [term])


# A product has at most min(term pairs, exponent slots) terms. Past this many
# of both, a `poly` input such as (1 + x)*(1 + x^2)*...*(1 + x^(2^(k-1)))
# grows fourfold per two more factors, so the product is refused unmade.
_MAX_POLY_PRODUCT = 1 << 16


def _bounded_poly_mul(p, q):
    from .polynomials import poly_mul
    if p.terms and q.terms:
        pairs = len(p.terms) * len(q.terms)
        slots = p.terms[0][1] - p.terms[-1][1] + q.terms[0][1] - q.terms[-1][1] + 1
        if min(pairs, slots) > _MAX_POLY_PRODUCT:
            raise InvalidInputError(
                f"polynomial product too large: {pairs} term pairs over {slots} "
                f"exponents, both more than 2^16")
    return poly_mul(p, q)


def eval_int(node) -> int:
    return eval_in(int_ring().ops, _int_leaf, node)


def eval_frac(node):
    from .fractions import fraction_field, mk_fraction
    return eval_in(fraction_field().ops,
                   lambda n: mk_fraction(int_ring(), _int_leaf(n), 1), node)


def eval_poly(node):
    from .polynomials import poly_add, poly_neg
    return eval_in({"add": poly_add, "neg": poly_neg, "mul": _bounded_poly_mul},
                   _poly_leaf, node)


def _term_leaf(node):
    from .eqprover import NatConst, UnitConst, Var
    if isinstance(node, Sym):
        return UnitConst() if node.name == "e" else Var(node.name)
    return NatConst(_int_leaf(node))


def expr_to_term(node):
    from .eqprover import Apply
    return eval_in({"add": partial(Apply, "+"), "mul": partial(Apply, "*")},
                   _term_leaf, node)


# ---------------------------------------------------------------------------
# instance registry


@lru_cache(maxsize=None)
def zmod_ring(b: int) -> StructureInstance:
    return residue_ring(int_ring(), b)


@lru_cache(maxsize=None)
def zmod_field(p: int) -> StructureInstance:
    return residue_field(int_ring(), p, is_prime(p))


@lru_cache(maxsize=None)
def poly_int_group() -> StructureInstance:
    from .polynomials import poly_group
    return poly_group(int_ring())


@lru_cache(maxsize=None)
def poly_zmod7_group() -> StructureInstance:
    from .polynomials import poly_group
    return poly_group(zmod_ring(7))


def _export(name: str):
    """A builder that calls the package's export name; the package imports
    its module on first use."""
    return lambda: getattr(sys.modules[__package__], name)()


_FIXED_INSTANCES = {
    "nat-add": nat_add_monoid,
    "nat-mul": nat_mul_monoid,
    "nat-pos-mul": pos_nat_mul_monoid,
    "int-add": int_add_group,
    "int-ring": int_ring,
    "int-ufd": _export("int_factorization_ring"),
    "nat-factor-monoid": _export("pos_nat_factorization_monoid"),
    "bin-add": bin_add_monoid,
    "frac-field": _export("fraction_field"),
    "poly-int-add": poly_int_group,
    "poly-zmod7-add": poly_zmod7_group,
}

# lawful roster for `laws --all`; nat-monus stays reachable by name only
LAWFUL_INSTANCE_NAMES = tuple(_FIXED_INSTANCES) + (
    "zmod6-ring", "zmod12-ring", "zmod7-field", "zmod97-field")

_ZMOD_RE = re.compile(r"zmod(\d+)-(ring|field|mul)")
_ZMOD = {"ring": zmod_ring, "field": zmod_field,
         "mul": lambda b: multiplicative_monoid(zmod_ring(b))}

# role -> (fixed names, the zmodN-<kind> kinds it takes); `laws` takes
# instances, `pow` takes monoids
_ROLES = {
    "instance": ({**_FIXED_INSTANCES, "nat-monus": nat_monus_semigroup}, ("ring", "field")),
    "monoid": ({n: _FIXED_INSTANCES[n] for n in ("nat-add", "nat-mul", "int-add", "bin-add")},
               ("mul",)),
}


def _lookup(role: str, name: str):
    """The zero-argument builder registered under name for role, or None."""
    fixed, kinds = _ROLES[role]
    if name in fixed:
        return fixed[name]
    m = _ZMOD_RE.fullmatch(name)
    if m is None or m.group(2) not in kinds:
        return None
    return partial(_ZMOD[m.group(2)], _literal(m.group(1), None))


def _valid(role: str, name: str) -> bool:
    return _lookup(role, name) is not None


def _resolve(role: str, name: str) -> StructureInstance:
    build = _lookup(role, name)
    if build is None:
        raise ParseError(f"unknown {role} {name!r}")
    return build()


valid_instance_name = partial(_valid, "instance")
resolve_instance = partial(_resolve, "instance")
valid_monoid_name = partial(_valid, "monoid")
resolve_monoid = partial(_resolve, "monoid")


# ---------------------------------------------------------------------------
# commands: each returns (exit code, JSON document, thunk for the text)


def _run_laws(ns):
    reports = [(name, check_laws(resolve_instance(name), seed=ns.seed, budget=ns.budget,
                                 sweep=ns.sweep)) for name in ns.names]
    all_ok = all(r.ok for _, r in reports)
    lines = []
    for name, r in reports:
        lines.append(f"{name}: ok ({r.cases} cases)" if r.ok
                     else f"{name}: {len(r.failures)} failures in {r.cases} cases")
        lines += [f"  {law}: {case!r}" for law, case in r.failures[:5]]
    doc = {"command": "laws", "seed": ns.seed, "budget": ns.budget, "sweep": ns.sweep,
           "ok": all_ok, "instances": [
               {"name": name, "kind": r.kind.value, "cases": r.cases,
                "failures": [[law, repr(case)] for law, case in r.failures]}
               for name, r in reports]}
    return 0 if all_ok else 5, doc, lambda: "\n".join(lines)


def _run_factor(ns):
    from .factorization import check_factorization, factor
    data = factor(ns.n)
    parts = [str(data.unit)] if data.unit != 1 else []
    for e in data.entries:
        parts.append(f"{e.prime}^{e.multiplicity}" if e.multiplicity > 1 else str(e.prime))
    doc = {"command": "factor", "n": ns.n, "unit": data.unit,
           "factors": [[e.prime, e.multiplicity] for e in data.entries],
           "verified": check_factorization(data, ns.n)}
    return 0, doc, lambda: f"{ns.n} = " + " * ".join(parts or ["1"])


def _run_egcd(ns):
    ring = int_ring()
    cert = extended_gcd(ring, ns.a, ns.b)
    doc = {"command": "egcd", "a": ns.a, "b": ns.b, "g": cert.g, "u": cert.u,
           "v": cert.v, "qa": cert.qa, "qb": cert.qb, "verified": verify_bezout(ring, cert)}
    return 0, doc, lambda: f"g={cert.g} u={cert.u} v={cert.v} qa={cert.qa} qb={cert.qb}"


def _run_isprime(ns):
    cert = is_prime(ns.n)
    doc = {"command": "isprime", "n": ns.n, "verdict": cert.verdict}
    if cert.verdict == "prime":
        return 0, doc, lambda: f"{ns.n}: prime"
    w = cert.witness
    doc.update(witness_divisor=w.divisor, witness_quotient=w.quotient)
    return 0, doc, lambda: (f"{ns.n}: composite ({w.divisor} | {w.dividend}, "
                            f"quotient {w.quotient})")


def _run_residue(ns):
    inst = (zmod_field if ns.field else zmod_ring)(ns.modulus)
    tree = parse_expr(ns.text, "frac" if ns.field else "int")
    value = eval_in(inst.ops, lambda n: make_residue(int_ring(), ns.modulus, _int_leaf(n)),
                    tree)
    doc = {"command": "residue", "modulus": ns.modulus, "field": ns.field,
           "expr": format_expr(tree), "value": value.value}
    return 0, doc, lambda: str(value)


def _run_frac(ns):
    tree = parse_expr(ns.text, "frac")
    value = eval_frac(tree)
    doc = {"command": "frac", "expr": format_expr(tree), "num": value.num, "den": value.den}
    return 0, doc, lambda: str(value)


def _run_poly(ns):
    from .polynomials import degree
    tree = parse_expr(ns.text, "poly")
    value = eval_poly(tree)
    deg = degree(value)
    doc = {"command": "poly", "expr": format_expr(tree),
           "poly": value, "degree": deg if deg is not None else "-inf"}
    return 0, doc, lambda: str(value)


def _run_sort(ns):
    from .certlists import fraction_order, int_order, sort_certified, verify_sort_result
    raw = ns.values or sys.stdin.read().split()
    if ns.order == "int":
        values = [eval_int(parse_expr(tok, "int")) for tok in raw]
        dto = int_order()
    else:
        values = [eval_frac(parse_expr(tok, "frac")) for tok in raw]
        dto = fraction_order()
    result = sort_certified(dto, values)
    ok = verify_sort_result(dto, values, result)
    ys = (list(result.ys) if ns.order == "int"
          else [{"num": y.num, "den": y.den} for y in result.ys])
    doc = {"command": "sort", "order": ns.order, "ys": ys,
           "perm": list(result.perm), "verified": ok}
    return 0, doc, lambda: (f"ys: {' '.join(map(str, result.ys))}\n"
                            f"perm: {' '.join(map(str, result.perm))}\n"
                            f"verified: {str(ok).lower()}")


def _run_pow(ns):
    monoid = resolve_monoid(ns.monoid)
    base, is_bin = ns.base, ns.monoid == "bin-add"
    if base < 0 and (is_bin or ns.monoid.startswith("nat")):
        raise InvalidInputError("base must be a natural number for this monoid")
    # base^e has floor(e * log10(base)) + 1 digits; capping e at 4 * limit
    # keeps the float finite and the verdict, since log10(2) > 1/4
    limit = _digit_limit()
    if (ns.monoid == "nat-mul" and base > 1 and limit
            and min(ns.exponent, 4 * limit) * math.log10(base) >= limit):
        raise InvalidInputError(f"{base}^{ns.exponent} has more than {limit} digits, "
                                "the interpreter's limit for printing an integer")
    unit = monoid.ops["identity"]()
    if isinstance(unit, Residue):
        base = make_residue(int_ring(), unit.modulus, base)
    elif is_bin:
        base = to_bin(base)
    result = power(monoid, base, ns.exponent)
    doc = {"command": "pow", "monoid": ns.monoid, "base": ns.base,
           "exponent": ns.exponent, "exponent_bits": bin_to_str(to_bin(ns.exponent)),
           "result": result}
    return 0, doc, lambda: bin_to_str(result) if is_bin else str(result)


def _run_prove(ns):
    from .eqprover import prove_eq
    sides = ns.equation.split("=")
    if len(sides) != 2 or not sides[0].strip() or not sides[1].strip():
        raise ParseError("equation must have the shape LHS = RHS", 0)
    lhs = expr_to_term(parse_expr(sides[0], "term"))
    rhs = expr_to_term(parse_expr(sides[1], "term"))
    decision = prove_eq(ns.theory, lhs, rhs)
    nl, nr = decision.evidence
    doc = {"command": "prove", "theory": ns.theory, "verdict": decision.holds,
           "left_normal": nl, "right_normal": nr}
    if decision.holds:
        return 0, doc, lambda: f"YES: both sides normalize to {nl}"
    return 0, doc, lambda: f"NO: left normalizes to {nl}, right to {nr}"


# ---------------------------------------------------------------------------
# argument parsing


_THEORY_ALIASES = {"csr": "commsemiring", "monoid": "monoid",
                   "semiring": "semiring", "commsemiring": "commsemiring"}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def natural(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be a natural number, got {n}")
    return n


def _registered(role: str, name: str) -> str:
    if not _valid(role, name):
        raise argparse.ArgumentTypeError(f"unknown {role} {name!r}")
    return name


def _theory(text: str) -> str:
    if text not in _THEORY_ALIASES:
        raise argparse.ArgumentTypeError(f"unknown theory {text!r}")
    return _THEORY_ALIASES[text]


def _build_argparser() -> _ArgumentParser:
    p = _ArgumentParser(prog="certalg", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler)
        sp.add_argument("--json", action="store_true", dest="as_json")
        return sp

    sp = command("laws", _run_laws, "run law suites over named instances")
    sp.add_argument("names", nargs="*", type=partial(_registered, "instance"))
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--budget", type=natural, default=DEFAULT_BUDGET)
    sp.add_argument("--sweep", type=natural, default=DEFAULT_SWEEP)

    command("factor", _run_factor, "factor an integer with certificates").add_argument(
        "n", type=int)

    sp = command("egcd", _run_egcd, "extended gcd with a Bezout certificate")
    sp.add_argument("a", type=int)
    sp.add_argument("b", type=int)

    command("isprime", _run_isprime, "primality: a factor witness when composite, a "
            "Pratt certificate when prime (exit 7 past the rho fuel)").add_argument(
        "n", type=int)

    sp = command("residue", _run_residue, "evaluate an expression in Z/(m)")
    sp.add_argument("-m", "--modulus", type=int, required=True)
    sp.add_argument("--field", action="store_true")
    sp.add_argument("text")

    command("frac", _run_frac, "evaluate a fraction expression").add_argument("text")
    command("poly", _run_poly, "evaluate a polynomial expression over the integers"
            ).add_argument("text")

    sp = command("sort", _run_sort, "certified sort of values (args or stdin)")
    sp.add_argument("--order", choices=("int", "frac"), default="int")
    sp.add_argument("values", nargs="*")

    sp = command("pow", _run_pow, "raise a monoid element to a natural power")
    sp.add_argument("monoid", type=partial(_registered, "monoid"))
    sp.add_argument("base", type=int)
    sp.add_argument("exponent", type=natural)

    sp = command("prove", _run_prove, "decide an equation by normalization")
    sp.add_argument("--theory", required=True, type=_theory)
    sp.add_argument("equation")
    return p


def parse_command(argv) -> argparse.Namespace:
    """Parse argv into a namespace whose handler runs the command."""
    ns = _build_argparser().parse_args(argv)
    if ns.command == "laws":
        if ns.all:
            ns.names = list(LAWFUL_INSTANCE_NAMES) + ns.names
        if not ns.names:
            raise ParseError("laws needs instance names or --all")
        if ns.budget > MAX_BUDGET:
            raise ParseError(f"argument --budget: at most 2^16 = {MAX_BUDGET}, "
                             f"got {ns.budget}")
        if ns.budget == 0 and ns.sweep == 0:
            raise ParseError("--budget 0 with --sweep 0 checks no case")
        if ns.seed is None:
            ns.seed = default_seed()
    return ns


# ---------------------------------------------------------------------------
# output


def _jsonable(x):
    if isinstance(x, (int, str, bool)) or x is None:
        return x
    if isinstance(x, Residue):
        return {"value": x.value, "modulus": x.modulus}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return str(x)


def _render(as_json: bool, doc: dict, text) -> str:
    """The one place a result becomes text. An integer past the digit limit
    makes str() and json.dumps raise ValueError; that is exit 7."""
    try:
        return json.dumps(_jsonable(doc)) if as_json else text()
    except ValueError:
        raise InvalidInputError(f"result has more than {_digit_limit()} digits") from None


def _error_payload(as_json: bool, kind: str, exc: Exception) -> str:
    doc = {"error": kind, "message": str(exc)}
    if isinstance(exc, CompositeModulusError):
        w = exc.cert.witness
        doc.update({"witness_divisor": w.divisor, "witness_dividend": w.dividend,
                    "witness_quotient": w.quotient})
    return json.dumps(doc) if as_json else f"error: {exc}"


def run(ns):
    """Execute a parsed command; returns (exit_code, output_text)."""
    try:
        code, doc, text = ns.handler(ns)
        return code, _render(ns.as_json, doc, text)
    except ParseError as e:
        return 2, _error_payload(ns.as_json, "parse", e)
    except ZeroDivisionError as e:
        return 3, _error_payload(ns.as_json, "division-by-zero", e)
    except CompositeModulusError as e:
        return 4, _error_payload(ns.as_json, "composite-modulus", e)
    except StructuralError as e:
        return 6, _error_payload(ns.as_json, "structural", e)
    except InvalidInputError as e:
        return 7, _error_payload(ns.as_json, "invalid-input", e)


def _wants_json(argv) -> bool:
    """Whether argv asks for --json (or a prefix of it) before any `--`."""
    options = argv[:argv.index("--")] if "--" in argv else argv
    return any(a.startswith("--j") and "--json".startswith(a) for a in options)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        ns = parse_command(argv)
    except ParseError as e:
        print(_error_payload(_wants_json(argv), "parse", e), file=sys.stderr)
        return 2
    code, text = run(ns)
    if text:
        print(text, file=sys.stdout if code == 0 else sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
