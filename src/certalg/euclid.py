"""Euclidean division, extended gcd with Bezout certificates, prime split,
and residue rings R/(b) with a field upgrade for prime moduli.

All algorithms are written against a ring instance's ops table, so they
work for any Euclidean ring; the integers ship as the concrete instance.
Division with remainder is canonical: 0 <= r < |b|.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

from .errors import CompositeModulusError, InvalidInputError
from .structures import NO, YES, DSet, Kind, StructureInstance
from .numbers import int_dset, _mixed_int


@dataclass(frozen=True, slots=True)
class DividesWitness:
    """Certifies divisor | dividend via dividend = divisor * quotient."""

    divisor: object
    dividend: object
    quotient: object


@dataclass(frozen=True, slots=True)
class BezoutCertificate:
    """Extended-gcd result for the pair (a, b).

    Invariants: u*a + v*b = g, a = qa*g, b = qb*g, and g = 0 only when
    a = b = 0. Self-contained: carries the subject pair.
    """

    a: object
    b: object
    g: object
    u: object
    v: object
    qa: object
    qb: object


@dataclass(frozen=True, slots=True)
class PrimalityCert:
    """Verdict 'prime' or 'composite'; composite carries a proper factor witness."""

    subject: object
    verdict: str
    witness: DividesWitness | None = None


@dataclass(frozen=True, slots=True)
class Residue:
    modulus: object
    value: object

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


def check_divides(ring: StructureInstance, w: DividesWitness) -> bool:
    mul = ring.ops["mul"]
    return ring.base.eq(w.dividend, mul(w.divisor, w.quotient)).holds


def div_mod(ring: StructureInstance, a, b):
    return ring.ops["div_mod"](a, b)


def extended_gcd(ring: StructureInstance, a, b) -> BezoutCertificate:
    """Extended Euclidean algorithm over any ring with div_mod.

    The returned g is canonicalized through the ring's canon_unit hook when
    present (non-negative for the integers); the Bezout coefficients and
    the quotients a = qa*g, b = qb*g are adjusted to match.
    """
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


def verify_bezout(ring: StructureInstance, cert: BezoutCertificate) -> bool:
    add = ring.ops["add"]
    mul = ring.ops["mul"]
    zero = ring.ops["zero"]()
    eq = ring.base.eq
    combo = add(mul(cert.u, cert.a), mul(cert.v, cert.b))
    if not eq(combo, cert.g).holds:
        return False
    if not eq(cert.a, mul(cert.qa, cert.g)).holds:
        return False
    if not eq(cert.b, mul(cert.qb, cert.g)).holds:
        return False
    if eq(cert.g, zero).holds:
        return eq(cert.a, zero).holds and eq(cert.b, zero).holds
    return True


def is_prime(n: int) -> PrimalityCert:
    """Trial-division primality with a factor witness on the composite side."""
    if abs(n) <= 1:
        raise InvalidInputError(f"primality of {n} is out of scope (|n| <= 1)")
    m = abs(n)
    if m % 2 == 0 and m != 2:
        return PrimalityCert(n, "composite", DividesWitness(2, n, n // 2))
    d = 3
    while d <= math.isqrt(m):
        if m % d == 0:
            return PrimalityCert(n, "composite", DividesWitness(d, n, n // d))
        d += 2
    return PrimalityCert(n, "prime")


def verify_primality(cert: PrimalityCert) -> bool:
    n = cert.subject
    if abs(n) <= 1:
        return False
    if cert.verdict == "composite":
        w = cert.witness
        if w is None or w.dividend != n:
            return False
        return 1 < abs(w.divisor) < abs(n) and w.divisor * w.quotient == n
    if cert.verdict != "prime" or cert.witness is not None:
        return False
    m = abs(n)
    return all(m % d for d in range(2, math.isqrt(m) + 1))


def prime_split(ring: StructureInstance, p, a, b, w: DividesWitness):
    """Given prime p and a witness for p | a*b, decide which factor p divides.

    Returns ("left", witness p|a) or ("right", witness p|b); the left side
    is preferred. The construction runs through the extended gcd of (p, a):
    a non-unit gcd must be an associate of p, giving p | a directly; a unit
    gcd gives u*p + v*a = 1, and multiplying by b shows p | b with quotient
    u*b + v*q where a*b = p*q.
    """
    mul = ring.ops["mul"]
    add = ring.ops["add"]
    eq = ring.base.eq
    is_unit = ring.ops["is_unit"]
    unit_inv = ring.ops["unit_inv"]

    if not eq(w.divisor, p).holds or not eq(w.dividend, mul(a, b)).holds:
        raise InvalidInputError("witness does not certify p | a*b")
    if not check_divides(ring, w):
        raise InvalidInputError("witness fails its own product check")
    cert_p = ring.ops["primality"](p)
    if cert_p.verdict != "prime":
        raise InvalidInputError(f"{p} is not prime")

    cert = extended_gcd(ring, p, a)
    if not is_unit(cert.g):
        # g | p and p prime force g to be an associate of p: p = qa*g with
        # qa a unit, so a = qb*g = (qb * qa^-1) * p.
        quotient = mul(cert.qb, unit_inv(cert.qa))
        witness = DividesWitness(p, a, quotient)
        side = "left"
    else:
        s = unit_inv(cert.g)
        u1 = mul(s, cert.u)
        v1 = mul(s, cert.v)
        quotient = add(mul(u1, b), mul(v1, w.quotient))
        witness = DividesWitness(p, b, quotient)
        side = "right"
    if not check_divides(ring, witness):
        raise InvalidInputError("derived witness failed re-check")
    return side, witness


# ---------------------------------------------------------------------------
# the integers as a Euclidean ring


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
        "primality": is_prime,
    }
    return StructureInstance(Kind.EUCLIDEAN_RING, int_dset(), ops, "int-ring")


# ---------------------------------------------------------------------------
# residues


def make_residue(ring: StructureInstance, b, v) -> Residue:
    return Residue(b, ring.ops["div_mod"](v, b)[1])


def _residue_dset(ring: StructureInstance, b, rem) -> DSet:
    """Carrier of R/(b); rem maps a ring element to its canonical remainder."""
    base_eq = ring.base.eq
    if ring is int_ring():
        def eq(x, y):
            return YES if x.value == y.value and x.modulus == y.modulus else NO
    else:
        def eq(x, y):
            return YES if x.modulus == y.modulus and base_eq(x.value, y.value).holds else NO

    def sample(seed, count):
        rng = random.Random(seed)
        return [Residue(b, rem(_mixed_int(rng))) for _ in range(count)]

    enumeration = None
    if isinstance(b, int):
        enumeration = tuple(Residue(b, v) for v in range(abs(b)))

    mul = ring.ops["mul"]
    add = ring.ops["add"]

    def variants(x, rng):
        k = rng.randint(1, 5)
        return [Residue(b, rem(add(x.value, mul(k, b))))]

    return DSet(f"{ring.base.name}/({b})", eq, sample, enumeration, variants)


def residue_ring(ring: StructureInstance, b) -> StructureInstance:
    """The quotient ring of a Euclidean ring by (b), on canonical remainders.

    Over the shipped int_ring() the ops reduce with Python's % directly;
    any other ring goes through its div_mod.
    """
    eq = ring.base.eq
    zero = ring.ops["zero"]()
    if eq(b, zero).holds:
        raise InvalidInputError("zero modulus")
    if ring.ops["is_unit"](b):
        raise InvalidInputError(f"modulus {b} is invertible; the quotient collapses")
    one = ring.ops["one"]()

    if ring is int_ring():
        m = abs(b)

        def rem(v):
            return v % m

        ops = {
            "add": lambda x, y: Residue(b, (x.value + y.value) % m),
            "neg": lambda x: Residue(b, -x.value % m),
            "mul": lambda x, y: Residue(b, x.value * y.value % m),
        }
    else:
        dm = ring.ops["div_mod"]
        radd = ring.ops["add"]
        rneg = ring.ops["neg"]
        rmul = ring.ops["mul"]

        def rem(v):
            return dm(v, b)[1]

        ops = {
            "add": lambda x, y: Residue(b, rem(radd(x.value, y.value))),
            "neg": lambda x: Residue(b, rem(rneg(x.value))),
            "mul": lambda x, y: Residue(b, rem(rmul(x.value, y.value))),
        }
    ops["zero"] = lambda: Residue(b, zero)
    ops["one"] = lambda: Residue(b, rem(one))
    return StructureInstance(Kind.COMMUTATIVE_RING, _residue_dset(ring, b, rem), ops,
                             f"{ring.name}/({b})")


def residue_field(ring: StructureInstance, b, cert: PrimalityCert) -> StructureInstance:
    """Field upgrade of residue_ring, justified by a primality certificate.

    The certificate is re-verified; a composite verdict raises
    CompositeModulusError carrying the factor witness.
    """
    if not ring.base.eq(cert.subject, b).holds:
        raise InvalidInputError(f"certificate subject {cert.subject} is not the modulus {b}")
    if not verify_primality(cert):
        raise InvalidInputError("primality certificate failed re-verification")
    if cert.verdict == "composite":
        raise CompositeModulusError(cert)

    base = residue_ring(ring, b)
    if ring is int_ring():
        m = abs(b)

        def inv(x: Residue) -> Residue:
            if x.value == 0:
                raise ZeroDivisionError("inverse of zero residue")
            try:
                return Residue(b, pow(x.value, -1, m))
            except ValueError:  # a non-canonical value such as Residue(7, 14)
                raise InvalidInputError(
                    f"{x.value} shares a factor with the modulus {b}") from None
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
