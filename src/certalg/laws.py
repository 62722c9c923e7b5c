"""Executable law suites for the kinds of the structures tower.

check_laws runs an instance's law catalogue, every law of its kind and of
the kind's ancestors, over a small exhaustive sweep plus seeded random
samples and reports every counterexample it finds; recheck_failure
re-evaluates one. One builder writes the laws of a binary operation once:
a group-like kind applies it to op, a ring to add and then to mul.
"""

from __future__ import annotations

import itertools
import math
import operator
import zlib

from .errors import StructuralError
from .kernel import Record
from .structures import GROUP_LIKE_KINDS, Kind, StructureInstance, ancestors, validate_instance


class LawReport(Record):
    __slots__ = ("kind", "cases", "failures")

    @property
    def ok(self) -> bool:
        """No counterexample, and at least one case checked."""
        return self.cases > 0 and not self.failures


class _Law(Record):
    # sample_arity: elements in a case, and so in a stored counterexample
    # tuple; a random case takes that many fresh samples
    __slots__ = ("name", "sample_arity", "pred")


def _op_laws(eq, vary, op, tag, assoc, comm, identity=None) -> list:
    """congruence(tag): op's results stay eq-equal when vary(x) stands in for x,
    plus associativity, commutativity and, given the identity role's thunk,
    identity. Callers gate on the kind: an identity may be None."""
    def congruent(x, y):
        xv = vary(x)
        return eq(op(x, y), op(xv, y)).holds and eq(op(y, x), op(y, xv)).holds

    laws = [_Law(f"congruence({tag})", 2, congruent)]
    if assoc:
        laws.append(_Law(
            f"associativity({tag})", 3,
            lambda x, y, z: eq(op(op(x, y), z), op(x, op(y, z))).holds))
    if comm:
        laws.append(_Law(
            f"commutativity({tag})", 2,
            lambda x, y: eq(op(x, y), op(y, x)).holds))
    if identity is not None:
        e = identity()
        laws.append(_Law(
            f"identity({tag})", 1,
            lambda x: eq(op(e, x), x).holds and eq(op(x, e), x).holds))
    return laws


def _inverse_laws(eq, vary, op, inv, e, name, congruence_name, zero=None) -> list:
    """inv(x) is a two-sided inverse of x under op with identity e, and inv
    respects eq: inv(vary(x)) is eq-equal to inv(x). A field passes its zero
    role's thunk, and zero is skipped."""
    inverse = lambda x: eq(op(inv(x), x), e).holds and eq(op(x, inv(x)), e).holds
    congruent = lambda x: eq(inv(x), inv(vary(x))).holds
    if zero is not None:  # a field's laws wrap these; the hot group and ring ones stay flat
        z, on_nonzero, congruent_on_nonzero = zero(), inverse, congruent
        inverse = lambda x: eq(x, z).holds or on_nonzero(x)
        congruent = lambda x: eq(x, z).holds or congruent_on_nonzero(x)
    return [_Law(name, 1, inverse), _Law(congruence_name, 1, congruent)]


def _reconstructs_law(eq, op, factor, zero=None) -> _Law:
    """The unit times the primes of factor(x), multiplied with op, gives x back;
    the zero role, when given, marks the one element that is skipped."""
    z = zero() if zero is not None else None

    def reconstructs(x):
        if zero is not None and eq(x, z).holds:
            return True
        data = factor(x)
        acc = data.unit
        for entry in data.entries:
            for _ in range(entry.multiplicity):
                acc = op(acc, entry.prime)
        return eq(acc, x).holds

    return _Law("factorization-reconstructs", 1, reconstructs)


def _native_int_law(ops) -> _Law:
    """native_int claims that the carrier holds ints and the ops are int
    arithmetic: check the ops native routes stand in for, types included."""
    def agrees(x, y):
        if not type(x) is type(y) is int:
            return False
        r = x % abs(y) if y else 0  # the canonical remainder, 0 <= r < |y|
        got = (ops["zero"](), ops["one"](), ops["add"](x, y), ops["neg"](x), ops["mul"](x, y),
               ops["gcd"](x, y), ops["canon_unit"](x), *(ops["div_mod"](x, y) if y else ()))
        want = (0, 1, x + y, -x, x * y, math.gcd(x, y), -1 if x < 0 else 1,
                *(((x - r) // y, r) if y else ()))
        return (got == want and {*map(type, got)} == {int}
                and ops["is_unit"](x) == (x in (1, -1)))

    return _Law("native-int", 2, agrees)


def _laws_for(inst: StructureInstance) -> list:
    eq = inst.base.eq
    vary = inst.base.variants or (lambda x: x)  # without variants, x stands in for its own
    kinds = ancestors(inst.kind)

    if inst.kind in GROUP_LIKE_KINDS:
        op = inst.ops["op"]
        laws = _op_laws(eq, vary, op, "op", Kind.SEMIGROUP in kinds,
                        Kind.COMMUTATIVE_SEMIGROUP in kinds,
                        inst.ops["identity"] if Kind.MONOID in kinds else None)
        if Kind.CC_MONOID in kinds:
            laws.append(_Law(
                "cancellation-left", 3,
                lambda x, y, z: eq(y, z).holds or not eq(op(x, y), op(x, z)).holds))
            laws.append(_Law(
                "cancellation-right", 3,
                lambda x, y, z: eq(y, z).holds or not eq(op(y, x), op(z, x)).holds))
        if Kind.GROUP in kinds:
            e = inst.ops["identity"]()
            inv = inst.ops["inverse"]
            laws += _inverse_laws(eq, vary, op, inv, e, "inverse(op)", "congruence(inverse)")
            laws.append(_Law(
                "inverse-uniqueness", 2,
                lambda x, y: not eq(op(x, y), e).holds or eq(y, inv(x)).holds))
            laws.append(_Law(
                "inverse-antihomomorphism", 2,
                lambda x, y: eq(inv(op(x, y)), op(inv(y), inv(x))).holds))
        if Kind.FACTORIZATION_MONOID in kinds:
            laws.append(_reconstructs_law(eq, op, inst.ops["factor"]))
        return laws

    add = inst.ops["add"]
    zero = inst.ops["zero"]()
    mul = inst.ops["mul"]
    laws = _op_laws(eq, vary, add, "add", True, True, inst.ops["zero"])
    laws += _inverse_laws(eq, vary, add, inst.ops["neg"], zero, "inverse(add)", "congruence(neg)")
    laws += _op_laws(eq, vary, mul, "mul", Kind.RING in kinds, Kind.COMMUTATIVE_RING in kinds,
                     inst.ops["one"] if Kind.RING_WITH_ONE in kinds else None)
    if Kind.RING in kinds:
        laws.append(_Law(
            "distributivity-left", 3,
            lambda x, y, z: eq(mul(x, add(y, z)), add(mul(x, y), mul(x, z))).holds))
        laws.append(_Law(
            "distributivity-right", 3,
            lambda x, y, z: eq(mul(add(x, y), z), add(mul(x, z), mul(y, z))).holds))
    if Kind.INTEGRAL_RING in kinds:
        laws.append(_Law(
            "no-zero-divisors", 2,
            lambda x, y: eq(x, zero).holds or eq(y, zero).holds
            or not eq(mul(x, y), zero).holds))
    if "gcd" in inst.ops and "div_mod" in inst.ops and Kind.INTEGRAL_RING in kinds:
        gcd = inst.ops["gcd"]
        div_mod = inst.ops["div_mod"]

        def gcd_divides(a, b):
            g = gcd(a, b)
            if eq(g, zero).holds:
                return eq(a, zero).holds and eq(b, zero).holds
            return eq(div_mod(a, g)[1], zero).holds and eq(div_mod(b, g)[1], zero).holds

        laws.append(_Law("gcd-divides", 2, gcd_divides))
    if Kind.EUCLIDEAN_RING in kinds:
        div_mod = inst.ops["div_mod"]
        norm = inst.ops["norm"]

        def division_contract(a, b):
            if eq(b, zero).holds:
                return True
            q, r = div_mod(a, b)
            return eq(a, add(mul(q, b), r)).holds and (eq(r, zero).holds or norm(r) < norm(b))

        laws.append(_Law("division-contract", 2, division_contract))
    if "factor" in inst.ops and Kind.RING_WITH_ONE in kinds:
        laws.append(_reconstructs_law(eq, mul, inst.ops["factor"], inst.ops["zero"]))
    if Kind.FIELD in kinds:
        laws += _inverse_laws(eq, vary, mul, inst.ops["inv"], inst.ops["one"](),
                              "multiplicative-inverse", "congruence(inv)", lambda: zero)
    if "native_int" in inst.ops:
        laws.append(_native_int_law(inst.ops))
    return laws


def _law_seed(seed: int, law_name: str) -> int:
    return (seed * 0x9E3779B1 + zlib.crc32(law_name.encode())) & 0x7FFFFFFF


def check_laws(inst: StructureInstance, seed: int = 1, budget: int = 200,
               sweep: int = 4) -> LawReport:
    """Run the kind's law catalogue; collect every counterexample found.

    Each law sees an exhaustive sweep over the first `sweep` enumerated
    elements (when the carrier has an enumeration) plus `budget` seeded
    random cases. The random cases come from one seeded sample pool shared
    by all the instance's laws: a law of sample arity k takes the first
    budget*k elements as consecutive k-tuples, built column by column in C:
    column i is pool[i:n*k:k] and zip(*columns) gives the cases. A
    congruence law's predicate builds x's variant itself, so its sweep pairs
    each enumerated x with its variant. Every law of sample arity k runs
    over one list: the sweep's k-tuples, then the random ones. Failures are
    picked with itertools.compress, so no per-case Python loop runs outside
    the predicates. Deterministic for a fixed (seed, budget, sweep).
    """
    validate_instance(inst)
    return _run_laws(inst, _laws_for(inst), seed, budget, sweep)


def _run_laws(inst: StructureInstance, laws: list, seed: int, budget: int,
              sweep: int) -> LawReport:
    """check_laws' runner, for any list of laws over inst's carrier."""
    dset = inst.base
    small = dset.enumeration[:sweep] if dset.enumeration is not None and sweep > 0 else ()
    pool = dset.sample(_law_seed(seed, "sample-pool"),
                       budget * max(law.sample_arity for law in laws))
    n = max(budget, 0)
    tups_of = {k: [*itertools.product(small, repeat=k), *zip(*(pool[i:n * k:k] for i in range(k)))]
               for k in {law.sample_arity for law in laws}}
    failures = []
    cases = 0
    for law in laws:
        tups = tups_of[law.sample_arity]
        cases += len(tups)
        failures += zip(itertools.repeat(law.name), itertools.compress(
            tups, map(operator.not_, itertools.starmap(law.pred, tups))))
    return LawReport(inst.kind, cases, tuple(failures))


def recheck_failure(inst: StructureInstance, law_name: str, case: tuple) -> bool:
    """Re-evaluate one reported counterexample; True means it still fails."""
    for law in _laws_for(inst):
        if law.name == law_name:
            if len(case) != law.sample_arity:
                raise StructuralError(f"case arity mismatch for {law_name}")
            return not law.pred(*case)
    raise StructuralError(f"unknown law {law_name!r} for kind {inst.kind.value}")
