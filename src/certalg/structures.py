"""Algebraic structure kinds, decidable carriers, and executable law suites.

A StructureInstance packages a carrier (DSet) with named operations for one
kind in the tower Magma .. Field. check_laws runs the kind's law catalogue
over a small exhaustive sweep plus seeded random samples and reports every
counterexample it finds. One builder writes the laws of a binary operation
once: a group-like kind applies it to op, a ring to add and then to mul.
"""

from __future__ import annotations

import itertools
import math
import random
import zlib
from enum import Enum

from .errors import StructuralError


class Kind(Enum):
    MAGMA = "Magma"
    SEMIGROUP = "Semigroup"
    COMMUTATIVE_SEMIGROUP = "CommutativeSemigroup"
    MONOID = "Monoid"
    COMMUTATIVE_MONOID = "CommutativeMonoid"
    CC_MONOID = "CCMonoid"
    FACTORIZATION_MONOID = "FactorizationMonoid"
    GROUP = "Group"
    COMMUTATIVE_GROUP = "CommutativeGroup"
    RINGOID = "Ringoid"
    RING = "Ring"
    RING_WITH_ONE = "RingWithOne"
    COMMUTATIVE_RING = "CommutativeRing"
    INTEGRAL_RING = "IntegralRing"
    GCD_RING = "GCDRing"
    EUCLIDEAN_RING = "EuclideanRing"
    FACTORIZATION_RING = "FactorizationRing"
    UNIQUE_FACTORIZATION_RING = "UniqueFactorizationRing"
    FIELD = "Field"


# The tower, one row per kind: (immediate parents, required op roles). A kind
# inherits every ancestor's laws, but a ring kind checks its additive group's axioms,
# not inverse-uniqueness or inverse-antihomomorphism. Roles are written in full, not
# inherited: a ring kind names add/neg/zero, not its group's op, and a field sits on
# UniqueFactorizationRing without requiring factor.
TOWER = {
    Kind.MAGMA: ((), frozenset({"op"})),
    Kind.SEMIGROUP: ((Kind.MAGMA,), frozenset({"op"})),
    Kind.COMMUTATIVE_SEMIGROUP: ((Kind.SEMIGROUP,), frozenset({"op"})),
    Kind.MONOID: ((Kind.SEMIGROUP,), frozenset({"op", "identity"})),
    Kind.COMMUTATIVE_MONOID: ((Kind.MONOID, Kind.COMMUTATIVE_SEMIGROUP),
                              frozenset({"op", "identity"})),
    Kind.CC_MONOID: ((Kind.COMMUTATIVE_MONOID,), frozenset({"op", "identity"})),
    Kind.FACTORIZATION_MONOID: ((Kind.CC_MONOID,), frozenset({"op", "identity", "factor"})),
    Kind.GROUP: ((Kind.MONOID,), frozenset({"op", "identity", "inverse"})),
    Kind.COMMUTATIVE_GROUP: ((Kind.GROUP, Kind.COMMUTATIVE_MONOID),
                             frozenset({"op", "identity", "inverse"})),
    Kind.RINGOID: ((Kind.COMMUTATIVE_GROUP,), frozenset({"add", "neg", "zero", "mul"})),
    Kind.RING: ((Kind.RINGOID,), frozenset({"add", "neg", "zero", "mul"})),
    Kind.RING_WITH_ONE: ((Kind.RING,), frozenset({"add", "neg", "zero", "mul", "one"})),
    Kind.COMMUTATIVE_RING: ((Kind.RING_WITH_ONE,),
                            frozenset({"add", "neg", "zero", "mul", "one"})),
    Kind.INTEGRAL_RING: ((Kind.COMMUTATIVE_RING,),
                         frozenset({"add", "neg", "zero", "mul", "one"})),
    Kind.GCD_RING: ((Kind.INTEGRAL_RING,),
                    frozenset({"add", "neg", "zero", "mul", "one", "gcd"})),
    Kind.EUCLIDEAN_RING: ((Kind.INTEGRAL_RING,),
                          frozenset({"add", "neg", "zero", "mul", "one", "div_mod", "norm"})),
    Kind.FACTORIZATION_RING: ((Kind.INTEGRAL_RING,),
                              frozenset({"add", "neg", "zero", "mul", "one", "factor"})),
    Kind.UNIQUE_FACTORIZATION_RING: ((Kind.FACTORIZATION_RING,),
                                     frozenset({"add", "neg", "zero", "mul", "one", "factor"})),
    Kind.FIELD: ((Kind.UNIQUE_FACTORIZATION_RING,),
                 frozenset({"add", "neg", "zero", "mul", "one", "inv"})),
}

# A group-like kind has one operation, op; the others are rings over add and mul.
GROUP_LIKE_KINDS = frozenset(kind for kind, (_, roles) in TOWER.items() if "op" in roles)
RING_LIKE_KINDS = frozenset(set(Kind) - GROUP_LIKE_KINDS)

# Every op role an instance may carry; roles beyond its kind's are auxiliary capability.
_ROLES = frozenset({
    "op", "identity", "inverse", "factor", "power",
    "add", "neg", "zero", "mul", "one", "inv", "gcd", "div_mod", "norm",
    "is_unit", "unit_inv", "canon_unit", "primality", "prime_split",
    "egcd", "to_int", "from_int", "native_int",
})


class Record:
    """An immutable value whose fields are its __slots__.

    Each subclass gets an __init__ (fields by position or name, _defaults for
    the trailing ones), __eq__ and __hash__, built once when the class is made.
    A record equals only a record of its own type with equal fields, hashes
    over its fields, has no order, and reads Name(field=value, ...). Fields in
    _hidden stay out of ==, hash and repr.
    """

    __slots__ = ()
    _defaults = ()
    _hidden = ()

    def __init_subclass__(cls):
        fields = cls.__slots__
        cls._shown = tuple(f for f in fields if f not in cls._hidden)
        mine = "".join(f"self.{f}, " for f in cls._shown)
        theirs = "".join(f"other.{f}, " for f in cls._shown)
        # each field is set through its slot's own descriptor, past __setattr__
        ns = {f"_set_{f}": getattr(cls, f).__set__ for f in fields}
        exec(f"def __init__(self, {', '.join(fields)}):\n"
             + ("".join(f" _set_{f}(self, {f})\n" for f in fields) or " pass\n")
             + "def __eq__(self, other):\n"
             f" if other.__class__ is self.__class__: return ({mine}) == ({theirs})\n"
             " return NotImplemented\n"
             f"def __hash__(self):\n return hash(({mine}))\n", ns)
        ns["__init__"].__defaults__ = cls._defaults
        for name in ("__init__", "__eq__", "__hash__"):
            ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, ns[name])

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):  # copy and pickle rebuild a record through __init__
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Decision(Record):
    """Decided proposition: holds plus opaque evidence (witness or refuter)."""

    __slots__ = ("holds", "evidence")
    _defaults = (None,)

    @classmethod
    def yes(cls, witness=None):
        return cls(True, witness)

    @classmethod
    def no(cls, refuter=None):
        return cls(False, refuter)

    def __bool__(self):
        return self.holds


# Shared evidence-free verdicts; the shipped carriers' eq returns these.
YES = Decision(True)
NO = Decision(False)


class DSet(Record):
    """Carrier with decidable equality and a deterministic sample generator.

    eq(a, b) returns a Decision; sample(seed, count) returns a list of count
    elements. enumeration, when present, is a bounded tuple of carrier
    elements used for exhaustive law sweeps. variants, when present, maps an
    element and a random.Random to eq-equal elements built through a
    different construction path.
    """

    __slots__ = ("name", "eq", "sample", "enumeration", "variants")
    _defaults = (None, None)


def seeded(draw):
    """A DSet sample: sample(seed, count) is count draws draw(rng) from
    rng = random.Random(seed)."""
    def sample(seed, count):
        rng = random.Random(seed)
        return [draw(rng) for _ in range(count)]
    return sample


class StructureInstance(Record):
    __slots__ = ("kind", "base", "ops", "name")
    _defaults = ("",)


def ancestors(kind: Kind) -> frozenset:
    """The kind itself plus all tower ancestors."""
    seen = set()
    stack = [kind]
    while stack:
        k = stack.pop()
        if k in seen:
            continue
        seen.add(k)
        stack.extend(TOWER[k][0])
    return frozenset(seen)


def validate_instance(inst: StructureInstance) -> None:
    """Check the ops table against the kind's signature.

    Required roles must be present; all keys must be known roles. Roles
    from higher tower levels are allowed as auxiliary capability.
    """
    missing = TOWER[inst.kind][1] - set(inst.ops)
    if missing:
        raise StructuralError(
            f"{inst.name or inst.kind.value}: kind {inst.kind.value} requires ops {sorted(missing)}")
    unknown = set(inst.ops) - _ROLES
    if unknown:
        raise StructuralError(
            f"{inst.name or inst.kind.value}: unknown op roles {sorted(unknown)}")
    for role, fn in inst.ops.items():
        if not callable(fn):
            raise StructuralError(f"{inst.name or inst.kind.value}: op {role!r} is not callable")


class LawReport(Record):
    __slots__ = ("kind", "cases", "failures")

    @property
    def ok(self) -> bool:
        """No counterexample, and at least one case checked."""
        return self.cases > 0 and not self.failures


class _Law(Record):
    # sample_arity: fresh samples consumed per random case; case_arity:
    # elements in a stored counterexample tuple; uses_variant: a congruence
    # law splices an eq-equal variant in as the second element
    __slots__ = ("name", "sample_arity", "case_arity", "pred", "uses_variant")
    _defaults = (False,)


def _congruence_case(chunk, rng, dset):
    x = chunk[0]
    if dset.variants is not None:
        options = dset.variants(x, rng)
        xv = options[rng.randrange(len(options))] if options else x
    else:
        xv = x
    return (x, xv) + tuple(chunk[1:])


def _op_laws(beq, op, tag, assoc, comm, identity=None) -> list:
    """congruence(tag), plus associativity, commutativity and, given the identity
    role's thunk, identity. Callers gate on the kind: an identity may be None."""
    laws = [_Law(
        f"congruence({tag})", 2, 3,
        lambda x, xv, y: not beq(x, xv)
        or (beq(op(x, y), op(xv, y)) and beq(op(y, x), op(y, xv))),
        uses_variant=True)]
    if assoc:
        laws.append(_Law(
            f"associativity({tag})", 3, 3,
            lambda x, y, z: beq(op(op(x, y), z), op(x, op(y, z)))))
    if comm:
        laws.append(_Law(
            f"commutativity({tag})", 2, 2,
            lambda x, y: beq(op(x, y), op(y, x))))
    if identity is not None:
        e = identity()
        laws.append(_Law(
            f"identity({tag})", 1, 1,
            lambda x: beq(op(e, x), x) and beq(op(x, e), x)))
    return laws


def _inverse_laws(beq, op, inv, e, tag, inv_tag) -> list:
    """inv(x) is a two-sided inverse of x under op with identity e."""
    return [
        _Law(f"inverse({tag})", 1, 1,
             lambda x: beq(op(inv(x), x), e) and beq(op(x, inv(x)), e)),
        _Law(f"congruence({inv_tag})", 1, 2,
             lambda x, xv: not beq(x, xv) or beq(inv(x), inv(xv)),
             uses_variant=True),
    ]


def _reconstructs_law(beq, op, factor, zero=None) -> _Law:
    """The unit times the primes of factor(x), multiplied with op, gives x back;
    the zero role, when given, marks the one element that is skipped."""
    z = zero() if zero is not None else None

    def reconstructs(x, _beq=beq):
        if zero is not None and _beq(x, z):
            return True
        data = factor(x)
        acc = data.unit
        for entry in data.entries:
            for _ in range(entry.multiplicity):
                acc = op(acc, entry.prime)
        return _beq(acc, x)

    return _Law("factorization-reconstructs", 1, 1, reconstructs)


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

    return _Law("native-int", 2, 2, agrees)


def _laws_for(inst: StructureInstance) -> list:
    eq = inst.base.eq
    beq = lambda a, b: eq(a, b).holds
    kinds = ancestors(inst.kind)

    if inst.kind in GROUP_LIKE_KINDS:
        op = inst.ops["op"]
        laws = _op_laws(beq, op, "op", Kind.SEMIGROUP in kinds,
                        Kind.COMMUTATIVE_SEMIGROUP in kinds,
                        inst.ops["identity"] if Kind.MONOID in kinds else None)
        if Kind.CC_MONOID in kinds:
            laws.append(_Law(
                "cancellation-left", 3, 3,
                lambda x, y, z: beq(y, z) or not beq(op(x, y), op(x, z))))
            laws.append(_Law(
                "cancellation-right", 3, 3,
                lambda x, y, z: beq(y, z) or not beq(op(y, x), op(z, x))))
        if Kind.GROUP in kinds:
            e = inst.ops["identity"]()
            inv = inst.ops["inverse"]
            laws += _inverse_laws(beq, op, inv, e, "op", "inverse")
            laws.append(_Law(
                "inverse-uniqueness", 2, 2,
                lambda x, y: not beq(op(x, y), e) or beq(y, inv(x))))
            laws.append(_Law(
                "inverse-antihomomorphism", 2, 2,
                lambda x, y: beq(inv(op(x, y)), op(inv(y), inv(x)))))
        if Kind.FACTORIZATION_MONOID in kinds:
            laws.append(_reconstructs_law(beq, op, inst.ops["factor"]))
        return laws

    add = inst.ops["add"]
    zero = inst.ops["zero"]()
    mul = inst.ops["mul"]
    laws = _op_laws(beq, add, "add", True, True, inst.ops["zero"])
    laws += _inverse_laws(beq, add, inst.ops["neg"], zero, "add", "neg")
    laws += _op_laws(beq, mul, "mul", Kind.RING in kinds, Kind.COMMUTATIVE_RING in kinds,
                     inst.ops["one"] if Kind.RING_WITH_ONE in kinds else None)
    if Kind.RING in kinds:
        laws.append(_Law(
            "distributivity-left", 3, 3,
            lambda x, y, z: beq(mul(x, add(y, z)), add(mul(x, y), mul(x, z)))))
        laws.append(_Law(
            "distributivity-right", 3, 3,
            lambda x, y, z: beq(mul(add(x, y), z), add(mul(x, z), mul(y, z)))))
    if Kind.INTEGRAL_RING in kinds:
        laws.append(_Law(
            "no-zero-divisors", 2, 2,
            lambda x, y: beq(x, zero) or beq(y, zero) or not beq(mul(x, y), zero)))
    if "gcd" in inst.ops and "div_mod" in inst.ops and Kind.INTEGRAL_RING in kinds:
        gcd = inst.ops["gcd"]
        div_mod = inst.ops["div_mod"]

        def gcd_divides(a, b, _beq=beq):
            g = gcd(a, b)
            if _beq(g, zero):
                return _beq(a, zero) and _beq(b, zero)
            return _beq(div_mod(a, g)[1], zero) and _beq(div_mod(b, g)[1], zero)

        laws.append(_Law("gcd-divides", 2, 2, gcd_divides))
    if Kind.EUCLIDEAN_RING in kinds:
        div_mod = inst.ops["div_mod"]
        norm = inst.ops["norm"]

        def division_contract(a, b, _beq=beq):
            if _beq(b, zero):
                return True
            q, r = div_mod(a, b)
            return _beq(a, add(mul(q, b), r)) and (_beq(r, zero) or norm(r) < norm(b))

        laws.append(_Law("division-contract", 2, 2, division_contract))
    if "factor" in inst.ops and Kind.RING_WITH_ONE in kinds:
        laws.append(_reconstructs_law(beq, mul, inst.ops["factor"], inst.ops["zero"]))
    if Kind.FIELD in kinds:
        one = inst.ops["one"]()
        inv = inst.ops["inv"]
        laws.append(_Law(
            "multiplicative-inverse", 1, 1,
            lambda x: beq(x, zero) or (beq(mul(inv(x), x), one) and beq(mul(x, inv(x)), one))))
        laws.append(_Law(
            "congruence(inv)", 1, 2,
            lambda x, xv: beq(x, zero) or not beq(x, xv) or beq(inv(x), inv(xv)),
            uses_variant=True))
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
    budget*k elements. Deterministic for a fixed (seed, budget, sweep).
    """
    validate_instance(inst)
    laws = _laws_for(inst)
    dset = inst.base
    small = dset.enumeration[:sweep] if dset.enumeration is not None and sweep > 0 else ()
    pool = dset.sample(_law_seed(seed, "sample-pool"),
                       budget * max(law.sample_arity for law in laws))
    failures = []
    cases = 0
    for law in laws:
        pred = law.pred
        for tup in itertools.product(small, repeat=law.case_arity):
            cases += 1
            if not pred(*tup):
                failures.append((law.name, tup))
        k = law.sample_arity
        n = max(0, min(budget, len(pool) // k))
        chunks = zip(*[iter(pool[:n * k])] * k)  # consecutive k-tuples
        if law.uses_variant:
            rng = random.Random(_law_seed(seed, law.name))
            chunks = [_congruence_case(chunk, rng, dset) for chunk in chunks]
        cases += n
        for tup in chunks:
            if not pred(*tup):
                failures.append((law.name, tup))
    return LawReport(inst.kind, cases, tuple(failures))


def recheck_failure(inst: StructureInstance, law_name: str, case: tuple) -> bool:
    """Re-evaluate one reported counterexample; True means it still fails."""
    for law in _laws_for(inst):
        if law.name == law_name:
            if len(case) != law.case_arity:
                raise StructuralError(f"case arity mismatch for {law_name}")
            return not law.pred(*case)
    raise StructuralError(f"unknown law {law_name!r} for kind {inst.kind.value}")


def multiplicative_monoid(inst: StructureInstance) -> StructureInstance:
    """The (mul, one) monoid of a ring-with-one instance."""
    if inst.kind not in RING_LIKE_KINDS or "one" not in inst.ops:
        raise StructuralError("multiplicative_monoid needs a ring with one")
    one = inst.ops["one"]()
    kind = (Kind.COMMUTATIVE_MONOID
            if Kind.COMMUTATIVE_RING in ancestors(inst.kind) else Kind.MONOID)
    ops = {"op": inst.ops["mul"], "identity": lambda: one}
    return StructureInstance(kind, inst.base, ops, f"{inst.name}-mul")
