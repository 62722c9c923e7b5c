"""Command-line front end.

Subcommands: laws, factor, egcd, isprime, residue, frac, poly, sort, pow,
prove. Expressions use an ASCII grammar: explicit *, ^ for exponents,
unsigned integer literals with sign via unary minus, division only where
fractions make sense. --json switches to a single flat JSON document.

Exit codes: 0 ok, 2 usage or parse error, 3 division by zero, 4 composite
modulus where a prime is required, 5 law failures found, 6 structural
misuse, 7 invalid input data.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass
from functools import lru_cache

from .errors import (CompositeModulusError, InvalidInputError, ParseError,
                     StructuralError)
from . import certlists, eqprover, factorization, fractions, polynomials
from .euclid import (BezoutCertificate, Residue, extended_gcd, int_ring,
                     is_prime, make_residue, residue_field, residue_ring,
                     verify_bezout)
from .numbers import (bin_add_monoid, bin_to_str, int_add_group,
                      nat_add_monoid, nat_monus_semigroup, nat_mul_monoid,
                      pos_nat_mul_monoid, power, to_bin)
from .structures import StructureInstance, check_laws, multiplicative_monoid

DEFAULT_BUDGET = 200
DEFAULT_SWEEP = 4
SEED_ENV_VAR = "CERTALG_SEED"


def default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 1
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}", 0)


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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j]), i))
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
# evaluators


def eval_int(node) -> int:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg):
        return -eval_int(node.operand)
    if isinstance(node, BinOp):
        l, r = eval_int(node.left), eval_int(node.right)
        return l + r if node.op == "+" else l - r if node.op == "-" else l * r
    raise StructuralError(f"cannot evaluate {node!r} as an integer")


def eval_frac(node, ring=None) -> fractions.Fraction:
    ring = ring or int_ring()
    if isinstance(node, Num):
        return fractions.mk_fraction(ring, node.value, 1)
    if isinstance(node, Neg):
        return fractions.neg_fraction(ring, eval_frac(node.operand, ring))
    if isinstance(node, BinOp):
        l = eval_frac(node.left, ring)
        r = eval_frac(node.right, ring)
        if node.op == "+":
            return fractions.add_optimized(ring, l, r)
        if node.op == "-":
            return fractions.add_optimized(ring, l, fractions.neg_fraction(ring, r))
        if node.op == "*":
            return fractions.mul_fractions(ring, l, r)
        return fractions.mul_fractions(ring, l, fractions.inverse(ring, r))
    raise StructuralError(f"cannot evaluate {node!r} as a fraction")


def eval_poly(node, ring=None) -> polynomials.Poly:
    ring = ring or int_ring()
    if isinstance(node, Num):
        return polynomials.mk_poly(ring, [(node.value, 0)])
    if isinstance(node, PowSym):
        return polynomials.mk_poly(ring, [(ring.ops["one"](), node.exp)])
    if isinstance(node, Neg):
        return polynomials.poly_neg(eval_poly(node.operand, ring))
    if isinstance(node, BinOp):
        l = eval_poly(node.left, ring)
        r = eval_poly(node.right, ring)
        if node.op == "+":
            return polynomials.poly_add(l, r)
        if node.op == "-":
            return polynomials.poly_add(l, polynomials.poly_neg(r))
        return polynomials.poly_mul(l, r)
    raise StructuralError(f"cannot evaluate {node!r} as a polynomial")


def eval_residue(node, inst: StructureInstance, modulus: int) -> Residue:
    base = int_ring()
    if isinstance(node, Num):
        return make_residue(base, modulus, node.value)
    if isinstance(node, Neg):
        return inst.ops["neg"](eval_residue(node.operand, inst, modulus))
    if isinstance(node, BinOp):
        l = eval_residue(node.left, inst, modulus)
        r = eval_residue(node.right, inst, modulus)
        if node.op == "+":
            return inst.ops["add"](l, r)
        if node.op == "-":
            return inst.ops["add"](l, inst.ops["neg"](r))
        if node.op == "*":
            return inst.ops["mul"](l, r)
        return inst.ops["mul"](l, inst.ops["inv"](r))
    raise StructuralError(f"cannot evaluate {node!r} as a residue")


def expr_to_term(node) -> eqprover.Term:
    if isinstance(node, Sym):
        return eqprover.UnitConst() if node.name == "e" else eqprover.Var(node.name)
    if isinstance(node, Num):
        return eqprover.NatConst(node.value)
    if isinstance(node, BinOp) and node.op in ("+", "*"):
        return eqprover.Apply(node.op, expr_to_term(node.left), expr_to_term(node.right))
    raise StructuralError(f"cannot interpret {node!r} as a prover term")


def poly_to_text(p: polynomials.Poly) -> str:
    if not p.terms:
        return "0"
    parts = []
    for i, (c, e) in enumerate(p.terms):
        negative = isinstance(c, int) and c < 0
        a = -c if negative else c
        if e == 0:
            body = str(a)
        elif e == 1:
            body = "x" if a == 1 else f"{a}*x"
        else:
            body = f"x^{e}" if a == 1 else f"{a}*x^{e}"
        if i == 0:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)


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
    return polynomials.poly_group(int_ring())


@lru_cache(maxsize=None)
def poly_zmod7_group() -> StructureInstance:
    return polynomials.poly_group(zmod_ring(7))


_FIXED_INSTANCES = {
    "nat-add": nat_add_monoid,
    "nat-mul": nat_mul_monoid,
    "nat-pos-mul": pos_nat_mul_monoid,
    "int-add": int_add_group,
    "int-ring": int_ring,
    "int-ufd": factorization.int_factorization_ring,
    "nat-factor-monoid": factorization.pos_nat_factorization_monoid,
    "bin-add": bin_add_monoid,
    "frac-field": fractions.fraction_field,
    "poly-int-add": poly_int_group,
    "poly-zmod7-add": poly_zmod7_group,
}

# lawful roster for `laws --all`; nat-monus stays reachable by name only
LAWFUL_INSTANCE_NAMES = tuple(_FIXED_INSTANCES) + (
    "zmod6-ring", "zmod12-ring", "zmod7-field", "zmod97-field")

_ZMOD_RE = re.compile(r"^zmod(\d+)-(ring|field|mul)$")


def valid_instance_name(name: str) -> bool:
    if name in _FIXED_INSTANCES or name == "nat-monus":
        return True
    m = _ZMOD_RE.match(name)
    return bool(m) and m.group(2) != "mul"


def resolve_instance(name: str) -> StructureInstance:
    if name in _FIXED_INSTANCES:
        return _FIXED_INSTANCES[name]()
    if name == "nat-monus":
        return nat_monus_semigroup()
    m = _ZMOD_RE.match(name)
    if m and m.group(2) == "ring":
        return zmod_ring(int(m.group(1)))
    if m and m.group(2) == "field":
        return zmod_field(int(m.group(1)))
    raise ParseError(f"unknown instance {name!r}", 0)


_POW_MONOIDS = ("nat-add", "nat-mul", "int-add", "bin-add")


def valid_monoid_name(name: str) -> bool:
    if name in _POW_MONOIDS:
        return True
    m = _ZMOD_RE.match(name)
    return bool(m) and m.group(2) == "mul"


def resolve_monoid(name: str) -> StructureInstance:
    if name in _POW_MONOIDS:
        return _FIXED_INSTANCES[name]()
    m = _ZMOD_RE.match(name)
    if m and m.group(2) == "mul":
        return multiplicative_monoid(zmod_ring(int(m.group(1))))
    raise ParseError(f"unknown monoid {name!r}", 0)


# ---------------------------------------------------------------------------
# commands


@dataclass(frozen=True)
class LawsCmd:
    names: tuple
    seed: int
    budget: int
    sweep: int
    as_json: bool


@dataclass(frozen=True)
class FactorCmd:
    n: int
    as_json: bool


@dataclass(frozen=True)
class EgcdCmd:
    a: int
    b: int
    as_json: bool


@dataclass(frozen=True)
class IsPrimeCmd:
    n: int
    as_json: bool


@dataclass(frozen=True)
class ResidueCmd:
    modulus: int
    field: bool
    text: str
    as_json: bool


@dataclass(frozen=True)
class FracCmd:
    text: str
    as_json: bool


@dataclass(frozen=True)
class PolyCmd:
    text: str
    as_json: bool


@dataclass(frozen=True)
class SortCmd:
    order: str
    values: tuple
    as_json: bool


@dataclass(frozen=True)
class PowCmd:
    monoid: str
    base: int
    exponent: int
    as_json: bool


@dataclass(frozen=True)
class ProveCmd:
    theory: str
    equation: str
    as_json: bool


_THEORY_ALIASES = {"csr": "commsemiring", "monoid": "monoid",
                   "semiring": "semiring", "commsemiring": "commsemiring"}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message, 0)


def _build_argparser() -> _ArgumentParser:
    p = _ArgumentParser(prog="certalg", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", dest="as_json")

    sp = sub.add_parser("laws", help="run law suites over named instances")
    sp.add_argument("names", nargs="*")
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--sweep", type=int, default=DEFAULT_SWEEP)
    common(sp)

    sp = sub.add_parser("factor", help="factor an integer with certificates")
    sp.add_argument("n", type=int)
    common(sp)

    sp = sub.add_parser("egcd", help="extended gcd with a Bezout certificate")
    sp.add_argument("a", type=int)
    sp.add_argument("b", type=int)
    common(sp)

    sp = sub.add_parser("isprime", help="primality: a factor witness when composite, a "
                        "Pratt certificate when prime (exit 7 past the rho fuel)")
    sp.add_argument("n", type=int)
    common(sp)

    sp = sub.add_parser("residue", help="evaluate an expression in Z/(m)")
    sp.add_argument("-m", "--modulus", type=int, required=True)
    sp.add_argument("--field", action="store_true")
    sp.add_argument("text")
    common(sp)

    sp = sub.add_parser("frac", help="evaluate a fraction expression")
    sp.add_argument("text")
    common(sp)

    sp = sub.add_parser("poly", help="evaluate a polynomial expression over the integers")
    sp.add_argument("text")
    common(sp)

    sp = sub.add_parser("sort", help="certified sort of values (args or stdin)")
    sp.add_argument("--order", choices=("int", "frac"), default="int")
    sp.add_argument("values", nargs="*")
    common(sp)

    sp = sub.add_parser("pow", help="raise a monoid element to a natural power")
    sp.add_argument("monoid")
    sp.add_argument("base", type=int)
    sp.add_argument("exponent", type=int)
    common(sp)

    sp = sub.add_parser("prove", help="decide an equation by normalization")
    sp.add_argument("--theory", required=True)
    sp.add_argument("equation")
    common(sp)
    return p


def parse_command(argv):
    ns = _build_argparser().parse_args(argv)
    cmd = ns.command
    if cmd == "laws":
        names = tuple(ns.names)
        if ns.all:
            names = LAWFUL_INSTANCE_NAMES + names
        if not names:
            raise ParseError("laws needs instance names or --all", 0)
        for name in names:
            if not valid_instance_name(name):
                raise ParseError(f"unknown instance {name!r}", 0)
        if ns.budget < 0 or ns.sweep < 0:
            raise ParseError("--budget and --sweep must be natural numbers", 0)
        if ns.budget == 0 and ns.sweep == 0:
            raise ParseError("--budget 0 with --sweep 0 checks no case", 0)
        seed = ns.seed if ns.seed is not None else default_seed()
        return LawsCmd(names, seed, ns.budget, ns.sweep, ns.as_json)
    if cmd == "factor":
        return FactorCmd(ns.n, ns.as_json)
    if cmd == "egcd":
        return EgcdCmd(ns.a, ns.b, ns.as_json)
    if cmd == "isprime":
        return IsPrimeCmd(ns.n, ns.as_json)
    if cmd == "residue":
        return ResidueCmd(ns.modulus, ns.field, ns.text, ns.as_json)
    if cmd == "frac":
        return FracCmd(ns.text, ns.as_json)
    if cmd == "poly":
        return PolyCmd(ns.text, ns.as_json)
    if cmd == "sort":
        return SortCmd(ns.order, tuple(ns.values), ns.as_json)
    if cmd == "pow":
        if not valid_monoid_name(ns.monoid):
            raise ParseError(f"unknown monoid {ns.monoid!r}", 0)
        if ns.exponent < 0:
            raise ParseError("exponent must be a natural number", 0)
        return PowCmd(ns.monoid, ns.base, ns.exponent, ns.as_json)
    if cmd == "prove":
        theory = _THEORY_ALIASES.get(ns.theory)
        if theory is None:
            raise ParseError(f"unknown theory {ns.theory!r}", 0)
        return ProveCmd(theory, ns.equation, ns.as_json)
    raise ParseError(f"unknown command {cmd!r}", 0)


# ---------------------------------------------------------------------------
# dispatch


def _jsonable(x):
    if isinstance(x, (int, str, bool)) or x is None:
        return x
    if isinstance(x, Residue):
        return {"value": x.value, "modulus": x.modulus}
    if isinstance(x, fractions.Fraction):
        return {"num": x.num, "den": x.den}
    if isinstance(x, polynomials.Poly):
        return poly_to_text(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return str(x)


def _emit(as_json: bool, doc: dict, text: str):
    return json.dumps({k: _jsonable(v) for k, v in doc.items()}) if as_json else text


def _run_laws(cmd: LawsCmd):
    lines = []
    results = []
    all_ok = True
    for name in cmd.names:
        inst = resolve_instance(name)
        report = check_laws(inst, seed=cmd.seed, budget=cmd.budget, sweep=cmd.sweep)
        results.append({
            "name": name,
            "kind": report.kind.value,
            "cases": report.cases,
            "failures": [[law, repr(case)] for law, case in report.failures],
        })
        if report.ok:
            lines.append(f"{name}: ok ({report.cases} cases)")
        else:
            all_ok = False
            lines.append(f"{name}: {len(report.failures)} failures in {report.cases} cases")
            for law, case in report.failures[:5]:
                lines.append(f"  {law}: {case!r}")
    code = 0 if all_ok else 5
    doc = {"command": "laws", "seed": cmd.seed, "budget": cmd.budget,
           "sweep": cmd.sweep, "ok": all_ok, "instances": results}
    return code, _emit(cmd.as_json, doc, "\n".join(lines))


def _run_factor(cmd: FactorCmd):
    data = factorization.factor(cmd.n)
    parts = [str(data.unit)] if data.unit != 1 else []
    for e in data.entries:
        parts.append(f"{e.prime}^{e.multiplicity}" if e.multiplicity > 1 else str(e.prime))
    if not parts:
        parts = ["1"]
    verified = factorization.check_factorization(data, cmd.n)
    doc = {"command": "factor", "n": cmd.n, "unit": data.unit,
           "factors": [[e.prime, e.multiplicity] for e in data.entries],
           "verified": verified}
    return 0, _emit(cmd.as_json, doc, f"{cmd.n} = " + " * ".join(parts))


def _run_egcd(cmd: EgcdCmd):
    ring = int_ring()
    cert = extended_gcd(ring, cmd.a, cmd.b)
    ok = verify_bezout(ring, cert)
    text = f"g={cert.g} u={cert.u} v={cert.v} qa={cert.qa} qb={cert.qb}"
    doc = {"command": "egcd", "a": cmd.a, "b": cmd.b, "g": cert.g, "u": cert.u,
           "v": cert.v, "qa": cert.qa, "qb": cert.qb, "verified": ok}
    return 0, _emit(cmd.as_json, doc, text)


def _run_isprime(cmd: IsPrimeCmd):
    cert = is_prime(cmd.n)
    if cert.verdict == "prime":
        text = f"{cmd.n}: prime"
        doc = {"command": "isprime", "n": cmd.n, "verdict": "prime"}
    else:
        w = cert.witness
        text = f"{cmd.n}: composite ({w.divisor} | {w.dividend}, quotient {w.quotient})"
        doc = {"command": "isprime", "n": cmd.n, "verdict": "composite",
               "witness_divisor": w.divisor, "witness_quotient": w.quotient}
    return 0, _emit(cmd.as_json, doc, text)


def _run_residue(cmd: ResidueCmd):
    ring = int_ring()
    if cmd.field:
        inst = residue_field(ring, cmd.modulus, is_prime(cmd.modulus))
        tree = parse_expr(cmd.text, "frac")
    else:
        inst = residue_ring(ring, cmd.modulus)
        tree = parse_expr(cmd.text, "int")
    value = eval_residue(tree, inst, cmd.modulus)
    doc = {"command": "residue", "modulus": cmd.modulus, "field": cmd.field,
           "expr": format_expr(tree), "value": value.value}
    return 0, _emit(cmd.as_json, doc, str(value))


def _run_frac(cmd: FracCmd):
    tree = parse_expr(cmd.text, "frac")
    value = eval_frac(tree)
    doc = {"command": "frac", "expr": format_expr(tree),
           "num": value.num, "den": value.den}
    return 0, _emit(cmd.as_json, doc, str(value))


def _run_poly(cmd: PolyCmd):
    tree = parse_expr(cmd.text, "poly")
    value = eval_poly(tree)
    deg = polynomials.degree(value)
    doc = {"command": "poly", "expr": format_expr(tree),
           "poly": value, "degree": deg if deg is not None else "-inf"}
    return 0, _emit(cmd.as_json, doc, poly_to_text(value))


def _parse_sort_values(order: str, raw):
    if order == "int":
        return [eval_int(parse_expr(tok, "int")) for tok in raw]
    return [eval_frac(parse_expr(tok, "frac")) for tok in raw]


def _run_sort(cmd: SortCmd):
    raw = list(cmd.values)
    if not raw:
        raw = sys.stdin.read().split()
    values = _parse_sort_values(cmd.order, raw)
    dto = certlists.int_order() if cmd.order == "int" else certlists.fraction_order()
    result = certlists.sort_certified(dto, values)
    ok = certlists.verify_sort_result(dto, values, result)
    ys_text = " ".join(str(y) for y in result.ys)
    text = f"ys: {ys_text}\nperm: {' '.join(map(str, result.perm))}\nverified: {str(ok).lower()}"
    doc = {"command": "sort", "order": cmd.order, "ys": list(result.ys),
           "perm": list(result.perm), "verified": ok}
    return 0, _emit(cmd.as_json, doc, text)


def _run_pow(cmd: PowCmd):
    monoid = resolve_monoid(cmd.monoid)
    base = cmd.base
    is_bin = cmd.monoid == "bin-add"
    if base < 0 and (is_bin or cmd.monoid.startswith("nat")):
        raise InvalidInputError("base must be a natural number for this monoid")
    m = _ZMOD_RE.match(cmd.monoid)
    if m:
        base = make_residue(int_ring(), int(m.group(1)), base)
    elif is_bin:
        base = to_bin(base)
    result = power(monoid, base, cmd.exponent)
    doc = {"command": "pow", "monoid": cmd.monoid, "base": cmd.base,
           "exponent": cmd.exponent,
           "exponent_bits": bin_to_str(to_bin(cmd.exponent)),
           "result": result}
    return 0, _emit(cmd.as_json, doc, bin_to_str(result) if is_bin else str(result))


def _run_prove(cmd: ProveCmd):
    sides = cmd.equation.split("=")
    if len(sides) != 2 or not sides[0].strip() or not sides[1].strip():
        raise ParseError("equation must have the shape LHS = RHS", 0)
    lhs = expr_to_term(parse_expr(sides[0], "term"))
    rhs = expr_to_term(parse_expr(sides[1], "term"))
    decision = eqprover.prove_eq(cmd.theory, lhs, rhs)
    nl, nr = decision.evidence
    if decision.holds:
        text = f"YES: both sides normalize to {nl}"
    else:
        text = f"NO: left normalizes to {nl}, right to {nr}"
    doc = {"command": "prove", "theory": cmd.theory, "verdict": decision.holds,
           "left_normal": str(nl), "right_normal": str(nr)}
    return 0, _emit(cmd.as_json, doc, text)


_HANDLERS = {
    LawsCmd: _run_laws,
    FactorCmd: _run_factor,
    EgcdCmd: _run_egcd,
    IsPrimeCmd: _run_isprime,
    ResidueCmd: _run_residue,
    FracCmd: _run_frac,
    PolyCmd: _run_poly,
    SortCmd: _run_sort,
    PowCmd: _run_pow,
    ProveCmd: _run_prove,
}


def _error_payload(cmd, kind: str, exc: Exception) -> str:
    as_json = getattr(cmd, "as_json", False)
    doc = {"error": kind, "message": str(exc)}
    if isinstance(exc, CompositeModulusError):
        w = exc.cert.witness
        doc.update({"witness_divisor": w.divisor, "witness_dividend": w.dividend,
                    "witness_quotient": w.quotient})
    return json.dumps(doc) if as_json else f"error: {exc}"


def run(cmd):
    """Execute a parsed command; returns (exit_code, output_text)."""
    try:
        return _HANDLERS[type(cmd)](cmd)
    except ParseError as e:
        return 2, _error_payload(cmd, "parse", e)
    except ZeroDivisionError as e:
        return 3, _error_payload(cmd, "division-by-zero", e)
    except CompositeModulusError as e:
        return 4, _error_payload(cmd, "composite-modulus", e)
    except StructuralError as e:
        return 6, _error_payload(cmd, "structural", e)
    except InvalidInputError as e:
        return 7, _error_payload(cmd, "invalid-input", e)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cmd = parse_command(argv)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    code, text = run(cmd)
    if text:
        print(text, file=sys.stdout if code == 0 else sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
