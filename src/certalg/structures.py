"""Algebraic structure kinds, decidable carriers, and structure instances.

A StructureInstance packages a carrier (DSet) with named operations for one
kind in the tower Magma .. Field. The law engine that checks an instance
against its kind's laws is in laws.
"""

from __future__ import annotations

import itertools
import random
from enum import Enum

from .errors import StructuralError
from .kernel import Record


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
_MAGMA_OPS = frozenset({"op"})
_MONOID_OPS = _MAGMA_OPS | {"identity"}
_GROUP_OPS = _MONOID_OPS | {"inverse"}
_RING_OPS = frozenset({"add", "neg", "zero", "mul"})
_RING1_OPS = _RING_OPS | {"one"}
TOWER = {
    Kind.MAGMA: ((), _MAGMA_OPS),
    Kind.SEMIGROUP: ((Kind.MAGMA,), _MAGMA_OPS),
    Kind.COMMUTATIVE_SEMIGROUP: ((Kind.SEMIGROUP,), _MAGMA_OPS),
    Kind.MONOID: ((Kind.SEMIGROUP,), _MONOID_OPS),
    Kind.COMMUTATIVE_MONOID: ((Kind.MONOID, Kind.COMMUTATIVE_SEMIGROUP), _MONOID_OPS),
    Kind.CC_MONOID: ((Kind.COMMUTATIVE_MONOID,), _MONOID_OPS),
    Kind.FACTORIZATION_MONOID: ((Kind.CC_MONOID,), _MONOID_OPS | {"factor"}),
    Kind.GROUP: ((Kind.MONOID,), _GROUP_OPS),
    Kind.COMMUTATIVE_GROUP: ((Kind.GROUP, Kind.COMMUTATIVE_MONOID), _GROUP_OPS),
    Kind.RINGOID: ((Kind.COMMUTATIVE_GROUP,), _RING_OPS),
    Kind.RING: ((Kind.RINGOID,), _RING_OPS),
    Kind.RING_WITH_ONE: ((Kind.RING,), _RING1_OPS),
    Kind.COMMUTATIVE_RING: ((Kind.RING_WITH_ONE,), _RING1_OPS),
    Kind.INTEGRAL_RING: ((Kind.COMMUTATIVE_RING,), _RING1_OPS),
    Kind.GCD_RING: ((Kind.INTEGRAL_RING,), _RING1_OPS | {"gcd"}),
    Kind.EUCLIDEAN_RING: ((Kind.INTEGRAL_RING,), _RING1_OPS | {"div_mod", "norm"}),
    Kind.FACTORIZATION_RING: ((Kind.INTEGRAL_RING,), _RING1_OPS | {"factor"}),
    Kind.UNIQUE_FACTORIZATION_RING: ((Kind.FACTORIZATION_RING,), _RING1_OPS | {"factor"}),
    Kind.FIELD: ((Kind.UNIQUE_FACTORIZATION_RING,), _RING1_OPS | {"inv"}),
}

# Each kind with all its ancestors, in row order: a row above its parent's fails at import.
_ANCESTORS = {}
for _kind, (_parents, _) in TOWER.items():
    _ANCESTORS[_kind] = frozenset({_kind}).union(*map(_ANCESTORS.__getitem__, _parents))
del _kind, _parents, _

# A group-like kind has one operation, op; the others are rings over add and mul.
GROUP_LIKE_KINDS = frozenset(kind for kind, (_, roles) in TOWER.items() if "op" in roles)
RING_LIKE_KINDS = frozenset(set(Kind) - GROUP_LIKE_KINDS)

# Every op role an instance may carry: the tower's, and auxiliary capability beyond them.
_ROLES = frozenset().union(*(roles for _, roles in TOWER.values())) | {
    "power", "is_unit", "unit_inv", "canon_unit", "primality", "prime_split",
    "to_int", "from_int", "native_int"}


class DSet(Record):
    """Carrier with decidable equality and a deterministic sample generator.

    eq(a, b) returns a Decision; sample(seed, count) returns a list of count
    elements. enumeration, when present, is a bounded tuple of carrier
    elements used for exhaustive law sweeps. variants, when present, maps an
    element x, and nothing else, to one element eq-equal to x, built through
    a different construction path; a congruence law builds it from its case's
    x and checks that each op gives eq-equal results on x and on it. Each
    shipped carrier returns one whose value reduces back to x, and never x
    itself (a Residue of v % |b| in int arithmetic, read from a twin table
    for |b| <= 2^8, mk_fraction(num*2, den*2), mk_poly over the reversed
    terms and a zero term), so its congruence laws catch only an op that
    tells equal objects apart by identity. The shipped samplers draw what
    randrange would: the int stream (numbers._mixed_int, which the int-fed
    carriers map) word for word, and the others each bounded int with
    below(rng, n).
    """

    __slots__ = ("name", "eq", "sample", "enumeration", "variants")
    _defaults = (None, None)


def below(rng, n):
    """What rng.randrange(n) draws, with no argument checks: k-bit getrandbits
    words, k = n.bit_length(), until one is below n, as Random._randbelow does."""
    if n < 1:  # getrandbits(0) is always 0, which is never below 0
        raise ValueError(f"empty range for below(): {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def seeded(draw):
    """A DSet sample: sample(seed, count) is count draws draw(rng) from
    rng = random.Random(seed)."""
    def sample(seed, count):
        return list(map(draw, itertools.repeat(random.Random(seed), count)))
    return sample


class StructureInstance(Record):
    __slots__ = ("kind", "base", "ops", "name")
    _defaults = ("",)


def ancestors(kind: Kind) -> frozenset:
    """The kind itself plus all tower ancestors."""
    return _ANCESTORS[kind]


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


def multiplicative_monoid(inst: StructureInstance) -> StructureInstance:
    """The (mul, one) monoid of a ring-with-one instance."""
    if inst.kind not in RING_LIKE_KINDS or "one" not in inst.ops:
        raise StructuralError("multiplicative_monoid needs a ring with one")
    one = inst.ops["one"]()
    kind = (Kind.COMMUTATIVE_MONOID
            if Kind.COMMUTATIVE_RING in ancestors(inst.kind) else Kind.MONOID)
    ops = {"op": inst.ops["mul"], "identity": lambda: one}
    return StructureInstance(kind, inst.base, ops, f"{inst.name}-mul")


def __getattr__(name):
    """check_laws and recheck_failure, which perfbench reads here, from laws."""
    if name in ("check_laws", "recheck_failure"):  # old paths, retired by ROADMAP item 1
        from . import laws
        return getattr(laws, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
