"""Euclidean division, extended gcd with Bezout certificates, and residue
rings R/(b) with a field upgrade for prime moduli.

The ring algorithms are written against a ring instance's ops table, so they
work for any Euclidean ring; the integers ship as the concrete instance.
Division with remainder is canonical: 0 <= r < |b|. Certificates and their
verifiers are in kernel; primality, factoring and prime split of integers
are in primes, which int_ring()'s primality role imports on first use.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

from .errors import CompositeModulusError, InvalidInputError
from .structures import DSet, Kind, StructureInstance, seeded
from .numbers import int_dset, _mixed_int
from .kernel import (NO, YES, BezoutCertificate, PrimalityCert, Record, verify_bezout,
                     verify_primality)  # verify_*: old perfbench paths, retired by ROADMAP item 1


class Residue(Record):
    __slots__ = ("modulus", "value")

    def __str__(self):
        return f"{self.value} (mod {self.modulus})"


def euclidean_div_mod(a: int, b: int):
    """Integer division with canonical remainder 0 <= r < |b|."""
    if b == 0:
        raise ZeroDivisionError("division by zero")
    q, r = divmod(a, b)
    if r < 0:
        q += 1
        r -= b
    return q, r


def extended_gcd(ring: StructureInstance, a, b) -> BezoutCertificate:
    """Extended Euclidean algorithm over any ring with div_mod.

    The returned g is canonicalized through the ring's canon_unit hook when
    present (non-negative for the integers); the Bezout coefficients and
    the quotients a = qa*g, b = qb*g are adjusted to match. Over a
    native_int ring (int_ring(), or a copy of its ops) the certificate comes
    from _int_egcd in closed form.
    """
    if "native_int" in ring.ops:
        return _int_egcd(a, b)
    add = ring.ops["add"]
    mul = ring.ops["mul"]
    neg = ring.ops["neg"]
    zero = ring.ops["zero"]()
    one = ring.ops["one"]()
    dm = ring.ops["div_mod"]
    eq = ring.base.eq

    old_r, r = a, b
    old_u, u = one, zero
    old_v, v = zero, one
    while not eq(r, zero).holds:
        q, rem = dm(old_r, r)
        old_r, r = r, rem
        old_u, u = u, add(old_u, neg(mul(q, u)))
        old_v, v = v, add(old_v, neg(mul(q, v)))
    g = old_r

    canon = ring.ops.get("canon_unit")
    if canon is not None and not eq(g, zero).holds:
        c = canon(g)
        if not eq(c, one).holds:
            g = mul(c, g)
            old_u = mul(c, old_u)
            old_v = mul(c, old_v)

    if eq(g, zero).holds:
        qa, qb = one, one
    else:
        qa = dm(a, g)[0]
        qb = dm(b, g)[0]
    return BezoutCertificate(a, b, g, old_u, old_v, qa, qb)


def _int_egcd(a: int, b: int) -> BezoutCertificate:
    """extended_gcd over a native_int ring, in closed form: the generic
    route's certificate, field by field, from math.gcd and one modular inverse.
    For b != 0, with g = gcd(a, b) and m = |b/g|, Euclid's u is an inverse
    of a/g mod m, and the cofactor bound (Knuth, TAOCP vol. 2, 4.5.2) puts
    it in the window (-m/2, m/2], shifted up by 1/2 when b < 0: with odd m
    and a/g = 2 (mod m), Euclid keeps u = (m+1)/2, not -(m-1)/2. v then
    solves u*a + v*b = g. b = 0 gives (a, 0, |a|, s, 0, s, 0) for the sign
    s of a, and (0, 0, 0, 1, 0, 1, 1) for a = 0.
    test_int_egcd_boundary_classes pins each of these cases.
    """
    if not b:
        if not a:
            return BezoutCertificate(0, 0, 0, 1, 0, 1, 1)
        s = -1 if a < 0 else 1
        return BezoutCertificate(a, 0, abs(a), s, 0, s, 0)
    g = math.gcd(a, b)
    qa, qb = a // g, b // g
    m = abs(qb)
    u = pow(qa, -1, m)  # 0 when m = 1
    if 2 * u > m + (b < 0):
        u -= m
    return BezoutCertificate(a, b, g, u, (g - u * a) // b, qa, qb)


# ---------------------------------------------------------------------------
# the integers as a Euclidean ring


def _identity(x):
    return x


def _primality(n):
    """primes.is_prime(n), with primes imported on the first call."""
    from .primes import is_prime
    return is_prime(n)


@lru_cache(maxsize=None)
def int_ring() -> StructureInstance:
    ops = {
        "add": lambda a, b: a + b,
        "neg": lambda a: -a,
        "zero": lambda: 0,
        "mul": lambda a, b: a * b,
        "one": lambda: 1,
        "div_mod": euclidean_div_mod,
        "norm": abs,
        "gcd": math.gcd,
        "is_unit": lambda a: a in (1, -1),
        "unit_inv": lambda a: a,
        "canon_unit": lambda a: -1 if a < 0 else 1,
        "primality": _primality,
        "to_int": _identity,
        "from_int": _identity,
        "native_int": int,  # a marker: ints, int arithmetic (law "native-int")
    }
    return StructureInstance(Kind.EUCLIDEAN_RING, int_dset(), ops, "int-ring")


# ---------------------------------------------------------------------------
# residues


_ENUMERATION_PREFIX = 64
# Z/(m) over a native_int ring with m up to this builds each of its residues once
_TABLE_MAX = 1 << 8


def make_residue(ring: StructureInstance, b, v) -> Residue:
    return Residue(b, ring.ops["div_mod"](v, b)[1])


def residue_ring(ring: StructureInstance, b) -> StructureInstance:
    """The quotient ring of a Euclidean ring by (b), on canonical remainders.

    Its carrier enumerates the first min(|b|, 64) residues. A variant of x is
    a Residue of x.value reduced that is not x, so congruence laws compare
    two distinct residues with equal values.

    Over a native_int ring (int_ring(), or a copy of its ops) the ops, the
    draw and the variants are int arithmetic mod |b|, the to_int/from_int
    roles expose the quotient map from the integers, and with |b| <= 2^8
    every residue is built once, with the ring, so the ops hand out shared,
    immutable objects (hash-consing) instead of a new one per result, read
    from that table with a subscript. A twin table beside it, built the same
    way, holds the variants: the twin of the reduced value, or for a twin
    the interned residue. eq tests identity first, which the interned
    results make a frequent hit. Any other ring goes through its div_mod
    and ops; it and the larger moduli build a fresh Residue per variant.
    """
    eq = ring.base.eq
    zero = ring.ops["zero"]()
    if eq(b, zero).holds:
        raise InvalidInputError("zero modulus")
    if ring.ops["is_unit"](b):
        raise InvalidInputError(f"modulus {b} is invertible; the quotient collapses")
    one = ring.ops["one"]()

    res = partial(Residue, b)

    def variants(x):  # a fresh Residue; the interned route reads a twin instead
        return Residue(b, rem(x.value))

    if "native_int" in ring.ops:
        m = abs(b)

        def rem(v):
            return v % m

        if m <= _TABLE_MAX:  # a subscript is cheaper than a call to res
            table = tuple(map(res, range(m)))
            twins = tuple(map(res, range(m)))
            res = table.__getitem__
            ops = {
                "add": lambda x, y: table[(x.value + y.value) % m],
                "neg": lambda x: table[-x.value % m],
                "mul": lambda x, y: table[x.value * y.value % m],
                "from_int": lambda v: table[v % m],
            }

            def variants(x):
                v = x.value % m
                return twins[v] if twins[v] is not x else table[v]
        else:
            ops = {
                "add": lambda x, y: res((x.value + y.value) % m),
                "neg": lambda x: res(-x.value % m),
                "mul": lambda x, y: res(x.value * y.value % m),
                "from_int": lambda v: res(v % m),
            }
        ops["to_int"] = lambda x: x.value

        def r_eq(x, y):
            return YES if x is y or x.value == y.value and x.modulus == y.modulus else NO

        def draw(rng):
            return res(_mixed_int(rng) % m)
    else:
        dm = ring.ops["div_mod"]
        radd = ring.ops["add"]
        rneg = ring.ops["neg"]
        rmul = ring.ops["mul"]

        def rem(v):
            return dm(v, b)[1]

        ops = {
            "add": lambda x, y: res(rem(radd(x.value, y.value))),
            "neg": lambda x: res(rem(rneg(x.value))),
            "mul": lambda x, y: res(rem(rmul(x.value, y.value))),
        }

        def r_eq(x, y):
            return YES if x.modulus == y.modulus and eq(x.value, y.value).holds else NO

        def draw(rng):
            return res(rem(_mixed_int(rng)))
    r_zero, r_one = res(zero), res(rem(one))
    ops["zero"] = lambda: r_zero
    ops["one"] = lambda: r_one
    # a prefix: sweeps read at most its first few elements, and a modulus
    # near 2^61 could not be enumerated in full
    enumeration = None
    if isinstance(b, int):
        enumeration = tuple(map(res, range(min(abs(b), _ENUMERATION_PREFIX))))
    dset = DSet(f"{ring.base.name}/({b})", r_eq, seeded(draw), enumeration, variants)
    return StructureInstance(Kind.COMMUTATIVE_RING, dset, ops, f"{ring.name}/({b})")


def residue_field(ring: StructureInstance, b, cert: PrimalityCert) -> StructureInstance:
    """Field upgrade of residue_ring, justified by a primality certificate.

    The certificate is re-verified; a composite verdict raises
    CompositeModulusError carrying the factor witness. Over a native_int ring
    inv is pow(v, -1, |b|); with |b| <= 2^8 a canonical unit's inverse is read
    from a table of interned residues built with the field.
    """
    if not ring.base.eq(cert.subject, b).holds:
        raise InvalidInputError(f"certificate subject {cert.subject} is not the modulus {b}")
    if not verify_primality(cert):
        raise InvalidInputError("primality certificate failed re-verification")
    if cert.verdict == "composite":
        raise CompositeModulusError(cert)

    base = residue_ring(ring, b)
    if "native_int" in ring.ops:
        m = abs(b)
        from_int = base.ops["from_int"]
        n = m if m <= _TABLE_MAX else 0  # the units' inverses below n are interned
        inverses = (None, *(from_int(pow(v, -1, m)) for v in range(1, n)))

        def inv(x: Residue) -> Residue:
            v = x.value
            if type(v) is int and 0 < v < n:
                return inverses[v]
            if v == 0:
                raise ZeroDivisionError("inverse of zero residue")
            try:
                return from_int(pow(v, -1, m))
            except ValueError:  # a non-canonical value such as Residue(7, 14)
                raise InvalidInputError(f"{v} shares a factor with the modulus {b}") from None
    else:
        eq = ring.base.eq
        zero = ring.ops["zero"]()
        dm = ring.ops["div_mod"]
        mul = ring.ops["mul"]
        unit_inv = ring.ops["unit_inv"]

        def inv(x: Residue) -> Residue:
            if eq(x.value, zero).holds:
                raise ZeroDivisionError("inverse of zero residue")
            c = extended_gcd(ring, x.value, b)
            if not ring.ops["is_unit"](c.g):
                raise InvalidInputError(f"{x.value} shares a factor with the modulus {b}")
            u = mul(unit_inv(c.g), c.u)
            return Residue(b, dm(u, b)[1])

    ops = dict(base.ops)
    ops["inv"] = inv
    return StructureInstance(Kind.FIELD, base.base, ops, f"{ring.name}/({b})-field")


def __getattr__(name):
    """is_prime, which perfbench reads here, from primes, imported on first lookup."""
    if name == "is_prime":  # an old path, retired by ROADMAP item 1
        from .primes import is_prime
        return is_prime
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
