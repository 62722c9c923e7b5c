"""Command-line front end.

Subcommands: laws, factor, egcd, isprime, residue, frac, poly, sort, pow,
prove. Expressions use eqprover's term grammar (parse_expr): explicit *,
^ for exponents, unsigned integer literals with sign via unary minus,
division only where fractions make sense. --json switches to a single flat
JSON document, for errors too (on stderr, parse errors included).

Integers obey the interpreter's digit limit for int <-> str conversion
(sys.get_int_max_str_digits(), 4300 by default): a longer literal is a parse
error (exit 2); a longer result is exit 7 (`pow nat-mul` refuses it upfront).
The products of one `poly` expression, and of each side of `prove`, share
one errors.Fuel of eqprover.MAX_TERM_PAIRS term pairs; past it, exit 7.
`laws --budget` is at most 2^16 (exit 2).

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
from functools import partial

from .errors import (CompositeModulusError, Fuel, InvalidInputError, ParseError,
                     StructuralError)
from .euclid import (Residue, extended_gcd, int_ring, make_residue, residue_field,
                     residue_ring, verify_bezout)
from .numbers import (_digit_limit, _literal, bin_add_monoid, bin_to_str,
                      int_add_group, nat_add_monoid, nat_monus_semigroup,
                      nat_mul_monoid, pos_nat_mul_monoid, power, to_bin)
from .structures import StructureInstance, multiplicative_monoid

DEFAULT_BUDGET = 200
# check_laws draws a sample pool linear in the budget, so time and memory
# grow with it
MAX_BUDGET = 1 << 16
DEFAULT_SWEEP = 4
SEED_ENV_VAR = "CERTALG_SEED"


def default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 1
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")


# ---------------------------------------------------------------------------
# evaluation: the term language's one fold (eqprover.eval_in) over a ring


def _fold(ops, numeral, node, power=None):
    """node evaluated in the ring whose role table is ops, a - b as
    add(a, neg(b)) and a / b as mul(a, inv(b)): the literal n is numeral(n)
    and x^k is power(k)."""
    from .eqprover import NatConst, PowSym, eval_in

    def leaf(t):
        if isinstance(t, NatConst):
            return numeral(t.value)
        if isinstance(t, PowSym) and power is not None:
            return power(t.exp)
        raise StructuralError(f"cannot evaluate {t!r} as a number")

    add, neg, mul = ops["add"], ops["neg"], ops["mul"]
    return eval_in({"+": add, "-": lambda a, b: add(a, neg(b)), "*": mul, "neg": neg,
                    "/": lambda a, b: mul(a, ops["inv"](b))}, leaf, node)


def eval_int(node) -> int:
    return _fold(int_ring().ops, int, node)


def eval_frac(node):
    from .fractions import fraction_field, mk_fraction
    return _fold(fraction_field().ops, lambda n: mk_fraction(int_ring(), n, 1), node)


def eval_poly(node):
    """node as a polynomial over the integers. A product has at most
    min(term pairs, exponent slots) terms and spends that many of the
    expression's one fuel of MAX_TERM_PAIRS: (1 + x)*(1 + x^2)*...*(1 + x^(2^(k-1)))
    grows fourfold per two more factors, so past the fuel it is refused unmade."""
    from .eqprover import MAX_TERM_PAIRS, _too_large
    from .polynomials import mk_poly, poly_add, poly_mul, poly_neg
    fuel = Fuel(MAX_TERM_PAIRS)

    def mul(p, q):
        if p.terms and q.terms:
            pairs = len(p.terms) * len(q.terms)
            slots = p.terms[0][1] - p.terms[-1][1] + q.terms[0][1] - q.terms[-1][1] + 1
            fuel.spend(min(pairs, slots), _too_large)
        return poly_mul(p, q)

    return _fold({"add": poly_add, "neg": poly_neg, "mul": mul},
                 lambda n: mk_poly(int_ring(), [(n, 0)]), node,
                 lambda k: mk_poly(int_ring(), [(1, k)]))


# ---------------------------------------------------------------------------
# instance registry


# the package, which imports an export's module on first use
_package = sys.modules[__package__]

# name -> zero-argument builder; `laws` takes every name, `pow` the _MONOIDS
_INSTANCES = {
    "nat-add": nat_add_monoid,
    "nat-mul": nat_mul_monoid,
    "nat-pos-mul": pos_nat_mul_monoid,
    "int-add": int_add_group,
    "int-ring": int_ring,
    "int-ufd": lambda: _package.int_factorization_ring(),
    "nat-factor-monoid": lambda: _package.pos_nat_factorization_monoid(),
    "bin-add": bin_add_monoid,
    "frac-field": lambda: _package.fraction_field(),
    "poly-int-add": lambda: _package.poly_group(int_ring()),
    "poly-zmod7-add": lambda: _package.poly_group(residue_ring(int_ring(), 7)),
    "nat-monus": nat_monus_semigroup,
}
_MONOIDS = ("nat-add", "nat-mul", "int-add", "bin-add")

# lawful roster for `laws --all`; nat-monus stays reachable by name only
LAWFUL_INSTANCE_NAMES = tuple(n for n in _INSTANCES if n != "nat-monus") + (
    "zmod6-ring", "zmod12-ring", "zmod7-field", "zmod97-field")

# zmodN-<kind>: kind -> the builder of N
_ZMOD_RE = re.compile(r"zmod(\d+)-(ring|field|mul)")
_ZMOD = {
    "ring": lambda b: residue_ring(int_ring(), b),
    "field": lambda p: residue_field(int_ring(), p, _package.is_prime(p)),
    "mul": lambda b: multiplicative_monoid(residue_ring(int_ring(), b)),
}


def _builder(role: str, name: str):
    """The zero-argument builder of name for role, or None. `laws` takes any
    "instance" name but zmodN-mul; `pow` a "monoid": a _MONOIDS name or zmodN-mul."""
    m = _ZMOD_RE.fullmatch(name)
    if m is not None:
        if (m.group(2) == "mul") != (role == "monoid"):
            return None
        return partial(_ZMOD[m.group(2)], _literal(m.group(1), None))
    if role == "monoid" and name not in _MONOIDS:
        return None
    return _INSTANCES.get(name)


def _resolve(role: str, name: str) -> StructureInstance:
    build = _builder(role, name)
    if build is None:
        raise ParseError(f"unknown {role} {name!r}")
    return build()


resolve_instance = partial(_resolve, "instance")
resolve_monoid = partial(_resolve, "monoid")


# ---------------------------------------------------------------------------
# commands: each returns (exit code, JSON document, thunk for the text)


def _run_laws(ns):
    from .laws import check_laws
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
    from .primes import is_prime
    cert = is_prime(ns.n)
    doc = {"command": "isprime", "n": ns.n, "verdict": cert.verdict}
    if cert.verdict == "prime":
        return 0, doc, lambda: f"{ns.n}: prime"
    w = cert.witness
    doc.update(witness_divisor=w.divisor, witness_quotient=w.quotient)
    return 0, doc, lambda: (f"{ns.n}: composite ({w.divisor} | {w.dividend}, "
                            f"quotient {w.quotient})")


def _run_residue(ns):
    from .eqprover import format_expr, parse_expr
    inst = _ZMOD["field" if ns.field else "ring"](ns.modulus)
    tree = parse_expr(ns.text, "frac" if ns.field else "int")
    value = _fold(inst.ops, lambda n: make_residue(int_ring(), ns.modulus, n), tree)
    doc = {"command": "residue", "modulus": ns.modulus, "field": ns.field,
           "expr": format_expr(tree), "value": value.value}
    return 0, doc, lambda: str(value)


def _run_frac(ns):
    from .eqprover import format_expr, parse_expr
    tree = parse_expr(ns.text, "frac")
    value = eval_frac(tree)
    doc = {"command": "frac", "expr": format_expr(tree), "num": value.num, "den": value.den}
    return 0, doc, lambda: str(value)


def _run_poly(ns):
    from .eqprover import format_expr, parse_expr
    from .polynomials import degree
    tree = parse_expr(ns.text, "poly")
    value = eval_poly(tree)
    deg = degree(value)
    doc = {"command": "poly", "expr": format_expr(tree),
           "poly": value, "degree": deg if deg is not None else "-inf"}
    return 0, doc, lambda: str(value)


def _run_sort(ns):
    from .certlists import fraction_order, int_order, sort_certified, verify_sort_result
    from .eqprover import parse_expr
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
    from .eqprover import parse_expr, prove_eq
    sides = ns.equation.split("=")
    if len(sides) != 2 or not sides[0].strip() or not sides[1].strip():
        raise ParseError("equation must have the shape LHS = RHS", 0)
    decision = prove_eq(ns.theory, parse_expr(sides[0], "term"), parse_expr(sides[1], "term"))
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
    if _builder(role, name) is None:
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


def _json_default(x):
    """A Residue as its value and modulus, a Poly or normal form as str()."""
    if isinstance(x, Residue):
        return {"value": x.value, "modulus": x.modulus}
    return str(x)


def _render(as_json: bool, doc: dict, text) -> str:
    """The one place a result becomes text. An integer past the digit limit
    makes str() and json.dumps raise ValueError; that is exit 7."""
    try:
        return json.dumps(doc, default=_json_default) if as_json else text()
    except ValueError:
        raise InvalidInputError(f"result has more than {_digit_limit()} digits") from None


# (error class, exit code, JSON "error" kind), first match wins; a handler
# returns 0, or 5 when laws fail. README's exit-code table documents these.
_EXIT_CODES = (
    (ParseError, 2, "parse"),
    (ZeroDivisionError, 3, "division-by-zero"),
    (CompositeModulusError, 4, "composite-modulus"),
    (StructuralError, 6, "structural"),
    (InvalidInputError, 7, "invalid-input"),
)


def _error(as_json: bool, exc: Exception):
    code, kind = next((c, k) for cls, c, k in _EXIT_CODES if isinstance(exc, cls))
    doc = {"error": kind, "message": str(exc)}
    if isinstance(exc, CompositeModulusError):
        w = exc.cert.witness
        doc.update({"witness_divisor": w.divisor, "witness_dividend": w.dividend,
                    "witness_quotient": w.quotient})
    return code, json.dumps(doc) if as_json else f"error: {exc}"


def run(ns):
    """Execute a parsed command; returns (exit_code, output_text)."""
    try:
        code, doc, text = ns.handler(ns)
        return code, _render(ns.as_json, doc, text)
    except tuple(cls for cls, _, _ in _EXIT_CODES) as e:
        return _error(ns.as_json, e)


def _wants_json(argv) -> bool:
    """Whether argv asks for --json (or a prefix of it) before any `--`."""
    options = argv[:argv.index("--")] if "--" in argv else argv
    return any(a.startswith("--j") and "--json".startswith(a) for a in options)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        code, text = run(parse_command(argv))
    except ParseError as e:  # run() reports its own; this one is argv's
        code, text = _error(_wants_json(argv), e)
    if text:
        print(text, file=sys.stdout if code == 0 else sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
