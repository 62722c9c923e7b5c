"""Canonical fractions over a gcd-capable ring (the integers ship).

Canonical form: denominator canonically positive, gcd(num, den) a unit,
zero is 0/1. add_optimized reduces by gcd(candidate numerator, g) only,
where g = gcd of the two denominators; add_naive cross-multiplies and
fully reduces, and is the differential oracle.

Over a ring with the native_int role (int_ring(), or a copy of its ops
table), mk_fraction, add_optimized, mul_fractions, inverse and is_canonical
run the same formulas on plain ints (math.gcd, //, one sign flip) instead
of through the ops table, so their results equal the generic route's field
by field, on non-canonical inputs too. Every other ring takes the generic
route; the tests use int_ring() without that role as the oracle.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd as igcd

from .kernel import NO, YES, Record
from .structures import DSet, Kind, StructureInstance, below, seeded
from .euclid import int_ring


class Fraction(Record):
    __slots__ = ("num", "den")

    def __str__(self):
        return f"{self.num}" if self.den == 1 else f"{self.num}/{self.den}"


def _canon(ring: StructureInstance, n, d) -> Fraction:
    """n/d with the canonical unit of d multiplied into both fields."""
    c = ring.ops["canon_unit"](d)
    if ring.base.eq(c, ring.ops["one"]()).holds:
        return Fraction(n, d)
    return Fraction(ring.ops["mul"](c, n), ring.ops["mul"](c, d))


def mk_fraction(ring: StructureInstance, n, d) -> Fraction:
    if "native_int" in ring.ops:
        if d == 0:
            raise ZeroDivisionError("zero denominator")
        if n == 0:
            return Fraction(0, 1)
        g = igcd(n, d)
        if g != 1:
            n //= g
            d //= g
        return Fraction(-n, -d) if d < 0 else Fraction(n, d)
    eq = ring.base.eq
    zero = ring.ops["zero"]()
    one = ring.ops["one"]()
    if eq(d, zero).holds:
        raise ZeroDivisionError("zero denominator")
    if eq(n, zero).holds:
        return Fraction(zero, one)
    dm = ring.ops["div_mod"]
    g = ring.ops["gcd"](n, d)
    if not ring.ops["is_unit"](g):
        n = dm(n, g)[0]
        d = dm(d, g)[0]
    return _canon(ring, n, d)


def is_canonical(ring: StructureInstance, x: Fraction) -> bool:
    if "native_int" in ring.ops:
        # gcd(0, d) = |d|, so a zero numerator passes only over 1
        return x.den > 0 and igcd(x.num, x.den) == 1
    eq = ring.base.eq
    zero = ring.ops["zero"]()
    one = ring.ops["one"]()
    if eq(x.den, zero).holds:
        return False
    if eq(x.num, zero).holds:
        return eq(x.den, one).holds
    if not ring.ops["is_unit"](ring.ops["gcd"](x.num, x.den)):
        return False
    return eq(ring.ops["canon_unit"](x.den), one).holds


def add_naive(ring: StructureInstance, x: Fraction, y: Fraction) -> Fraction:
    add = ring.ops["add"]
    mul = ring.ops["mul"]
    return mk_fraction(ring, add(mul(x.num, y.den), mul(y.num, x.den)),
                       mul(x.den, y.den))


def add_optimized(ring: StructureInstance, x: Fraction, y: Fraction) -> Fraction:
    """Common denominator through g = gcd(d1, d2); the candidate numerator
    only needs reduction by gcd(num, g) because the cofactors d1/g and d2/g
    share no further factor with it in a unique-factorization setting."""
    if "native_int" in ring.ops:
        g = igcd(x.den, y.den)
        t1 = x.den // g
        t2 = y.den // g
        num = x.num * t2 + y.num * t1
        if num == 0:
            return Fraction(0, 1)
        den = g * (t1 * t2)
        g2 = igcd(num, g)
        if g2 != 1:
            num //= g2
            den //= g2
        return Fraction(-num, -den) if den < 0 else Fraction(num, den)
    eq = ring.base.eq
    zero = ring.ops["zero"]()
    one = ring.ops["one"]()
    add = ring.ops["add"]
    mul = ring.ops["mul"]
    gcd = ring.ops["gcd"]
    dm = ring.ops["div_mod"]
    g = gcd(x.den, y.den)
    t1 = dm(x.den, g)[0]
    t2 = dm(y.den, g)[0]
    num = add(mul(x.num, t2), mul(y.num, t1))
    if eq(num, zero).holds:
        return Fraction(zero, one)
    den = mul(g, mul(t1, t2))
    g2 = gcd(num, g)
    if not ring.ops["is_unit"](g2):
        num = dm(num, g2)[0]
        den = dm(den, g2)[0]
    return _canon(ring, num, den)


def mul_fractions(ring: StructureInstance, x: Fraction, y: Fraction) -> Fraction:
    # cross-reduce before multiplying so intermediates stay small
    if "native_int" in ring.ops:
        if x.num == 0 or y.num == 0:
            return Fraction(0, 1)
        g1 = igcd(x.num, y.den)
        g2 = igcd(y.num, x.den)
        num = (x.num // g1) * (y.num // g2)
        den = (x.den // g2) * (y.den // g1)
        return Fraction(-num, -den) if den < 0 else Fraction(num, den)
    eq = ring.base.eq
    zero = ring.ops["zero"]()
    one = ring.ops["one"]()
    mul = ring.ops["mul"]
    gcd = ring.ops["gcd"]
    dm = ring.ops["div_mod"]
    if eq(x.num, zero).holds or eq(y.num, zero).holds:
        return Fraction(zero, one)
    g1 = gcd(x.num, y.den)
    g2 = gcd(y.num, x.den)
    n1 = dm(x.num, g1)[0]
    d2 = dm(y.den, g1)[0]
    n2 = dm(y.num, g2)[0]
    d1 = dm(x.den, g2)[0]
    return _canon(ring, mul(n1, n2), mul(d1, d2))


def neg_fraction(ring: StructureInstance, x: Fraction) -> Fraction:
    return Fraction(ring.ops["neg"](x.num), x.den)


def inverse(ring: StructureInstance, x: Fraction) -> Fraction:
    if "native_int" in ring.ops:
        if x.num == 0:
            raise ZeroDivisionError("inverse of zero fraction")
        return Fraction(-x.den, -x.num) if x.num < 0 else Fraction(x.den, x.num)
    eq = ring.base.eq
    if eq(x.num, ring.ops["zero"]()).holds:
        raise ZeroDivisionError("inverse of zero fraction")
    return _canon(ring, x.den, x.num)


@lru_cache(maxsize=None)
def fraction_field() -> StructureInstance:
    return build_fraction_field(int_ring())


def build_fraction_field(ring: StructureInstance) -> StructureInstance:
    base_eq = ring.base.eq

    def eq(x, y):
        return YES if base_eq(x.num, y.num).holds and base_eq(x.den, y.den).holds else NO

    def draw(rng):
        n = -30 + below(rng, 61)
        d = 0
        while d == 0:
            d = -30 + below(rng, 61)
        return mk_fraction(ring, n, d)

    enum = dict.fromkeys(mk_fraction(ring, n, d) for n in range(-3, 4) for d in range(1, 4))

    mulr = ring.ops["mul"]

    def variants(x):
        return mk_fraction(ring, mulr(x.num, 2), mulr(x.den, 2))

    dset = DSet(f"frac({ring.base.name})", eq, seeded(draw), tuple(enum), variants)
    ops = {
        "add": lambda x, y: add_optimized(ring, x, y),
        "neg": lambda x: neg_fraction(ring, x),
        "zero": lambda: Fraction(ring.ops["zero"](), ring.ops["one"]()),
        "mul": lambda x, y: mul_fractions(ring, x, y),
        "one": lambda: Fraction(ring.ops["one"](), ring.ops["one"]()),
        "inv": lambda x: inverse(ring, x),
    }
    return StructureInstance(Kind.FIELD, dset, ops, "frac-field")
