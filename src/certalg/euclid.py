"""Euclidean division, extended gcd with Bezout certificates, certified
primality and factoring of integers, prime split, and residue rings R/(b)
with a field upgrade for prime moduli.

The ring algorithms are written against a ring instance's ops table, so they
work for any Euclidean ring; the integers ship as the concrete instance.
Division with remainder is canonical: 0 <= r < |b|.

Primality and factoring work on plain ints. Below TRIAL_BOUND = 2^20, trial
division by the primes below 2^10 (one gcd with their product) decides and
re-checks. At and above it, Miller-Rabin on the first 13 prime bases decides
(deterministic below 3.3e24; Sorenson and Webster, Math. Comp. 2017) and
Pollard rho in Brent's variant finds a composite's divisor. A 'prime'
verdict above the bound carries a Pratt certificate (Pratt, SIAM J. Comput.
1975): a base of order p-1 plus the prime factors of p-1 as FactorEntry
values, which verify_primality checks with certified_product and modular
powers alone. Rho work is bounded by one errors.Fuel of RHO_FUEL word-steps
per call; past it, InvalidInputError is raised rather than an uncertified
verdict returned.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache, partial
from itertools import compress, count

from .errors import CompositeModulusError, Fuel, InvalidInputError
from .structures import NO, YES, DSet, Kind, Record, StructureInstance, below, seeded
from .numbers import int_dset, _mixed_int


class DividesWitness(Record):
    """Certifies divisor | dividend via dividend = divisor * quotient."""

    __slots__ = ("divisor", "dividend", "quotient")


class BezoutCertificate(Record):
    """Extended-gcd result for the pair (a, b).

    Invariants: u*a + v*b = g, a = qa*g, b = qb*g, and g = 0 only when
    a = b = 0. Self-contained: carries the subject pair.
    """

    __slots__ = ("a", "b", "g", "u", "v", "qa", "qb")


class PrattCertificate(Record):
    """Proof that p is prime: `base` has multiplicative order p-1 mod p.

    factors holds FactorEntry values (q, e, cert_q) that certified_product
    accepts for p-1: certified primes q whose powers q**e multiply to p-1.
    Then base**(p-1) = 1 and base**((p-1)/q) != 1 for each q force order p-1.
    """

    __slots__ = ("base", "factors")


class PrimalityCert(Record):
    """Verdict 'prime' or 'composite'.

    A composite carries a proper factor witness. A prime at or above
    TRIAL_BOUND carries a Pratt certificate for |subject|; below it, the
    verifier re-runs trial division and no certificate is attached.
    """

    __slots__ = ("subject", "verdict", "witness", "pratt")
    _defaults = (None, None)


# prime ** multiplicity, with cert a 'prime' PrimalityCert for prime
FactorEntry = namedtuple("FactorEntry", ("prime", "multiplicity", "cert"))


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


def check_divides(ring: StructureInstance, w: DividesWitness) -> bool:
    mul = ring.ops["mul"]
    return ring.base.eq(w.dividend, mul(w.divisor, w.quotient)).holds


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


def verify_bezout(ring: StructureInstance, cert: BezoutCertificate) -> bool:
    """Re-check the certificate's invariants from its own fields. Anything
    but a BezoutCertificate is refused. Over a native_int ring every field
    must be an int (bool is not) and the equations are checked in int
    arithmetic, where a = qa*g and b = qb*g already force a = b = 0 when
    g = 0; otherwise through the ring's ops."""
    if type(cert) is not BezoutCertificate:
        return False
    if "native_int" in ring.ops:
        a, b, g, u, v, qa, qb = (cert.a, cert.b, cert.g, cert.u, cert.v, cert.qa,
                                 cert.qb)
        return (type(a) is type(b) is type(g) is type(u) is type(v) is type(qa)
                is type(qb) is int and u * a + v * b == g and a == qa * g and b == qb * g)
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


# ---------------------------------------------------------------------------
# primality and factoring of integers


def _sieve(n: int) -> bytearray:
    """Primality flags for 0..n-1 (Eratosthenes)."""
    flags = bytearray([1]) * n
    flags[:2] = b"\0\0"
    for i in range(2, math.isqrt(n - 1) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, n, i)))
    return flags


_SMALL_LIMIT = 1 << 10
TRIAL_BOUND = _SMALL_LIMIT ** 2
RHO_FUEL = 1 << 19
_SMALL_PRIMES = tuple(compress(range(_SMALL_LIMIT), _sieve(_SMALL_LIMIT)))
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)
_MR_BASES = _SMALL_PRIMES[:13]
_PRATT_BASE_LIMIT = 1 << 12


def _least_small_factor(m: int):
    """The least prime below 2^10 dividing m >= 2, or None: trial division by
    all of them at once. For m < TRIAL_BOUND, None means m is prime."""
    g = math.gcd(m, _SMALL_PRODUCT)
    if g == 1:
        return None
    for p in _SMALL_PRIMES:
        if g % p == 0:
            return p


def _miller_rabin(m: int) -> bool:
    """Strong probable-prime test to the first 13 prime bases; m odd, > 41."""
    d, s = m - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _rho(m: int, fuel: Fuel) -> int:
    """A proper divisor of the composite m: Pollard rho, Brent's variant,
    with gcds taken over batches of 128 steps. A step on a number of k
    64-bit words costs k of the fuel."""
    words = (m.bit_length() + 63) // 64
    reason = partial("{} is composite, but Pollard rho ran out of fuel ({} word-steps) "
                     "before finding a divisor".format, m, RHO_FUEL)
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            fuel.spend(r * words, reason)
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(128, r - k)
                fuel.spend(steps * words, reason)
                for _ in range(steps):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = math.gcd(q, m)
                k += steps
            r *= 2
        if g == m:  # the batch overshot: step back one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(abs(x - ys), m)
        if g != m:
            return min(g, m // g)


def _composite(n: int, d: int) -> PrimalityCert:
    return PrimalityCert(n, "composite", DividesWitness(d, n, n // d))


def is_prime(n: int) -> PrimalityCert:
    """Decide primality of |n| with a certificate either way.

    Below TRIAL_BOUND a composite's witness is its least prime divisor.
    Above it, a composite's witness is a small prime divisor or one found by
    Pollard rho, and a prime carries a Pratt certificate. Raises
    InvalidInputError when |n| <= 1 or when rho runs out of fuel.
    """
    if abs(n) <= 1:
        raise InvalidInputError(f"primality of {n} is out of scope (|n| <= 1)")
    m = abs(n)
    d = _least_small_factor(m)
    if d is not None and d != m:
        return _composite(n, d)
    if m < TRIAL_BOUND:
        return PrimalityCert(n, "prime")
    fuel = Fuel(RHO_FUEL)
    if _miller_rabin(m):
        return PrimalityCert(n, "prime", pratt=_pratt(m, fuel))
    return _composite(n, _rho(m, fuel))


def _prime_factors(m: int, fuel: Fuel) -> list:
    """Sorted (prime, multiplicity) pairs of m >= 1: small primes first, then
    Miller-Rabin to keep a prime part and Pollard rho to split the rest."""
    counts = {}
    g = math.gcd(m, _SMALL_PRODUCT)
    for p in _SMALL_PRIMES:
        if p > g:
            break
        if g % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            counts[p] = e
    pending = [m] if m > 1 else []
    while pending:
        k = pending.pop()
        # k has no prime factor below _SMALL_LIMIT, so below its square it is prime
        if k < TRIAL_BOUND or _miller_rabin(k):
            counts[k] = counts.get(k, 0) + 1
        else:
            d = _rho(k, fuel)
            pending += (d, k // d)
    return sorted(counts.items())


def _certified_factors(m: int, fuel: Fuel) -> tuple:
    out = []
    for q, e in _prime_factors(m, fuel):
        out.append(FactorEntry(q, e, PrimalityCert(q, "prime", pratt=_pratt(q, fuel)
                                                   if q >= TRIAL_BOUND else None)))
    return tuple(out)


def certified_factors(m: int) -> tuple:
    """The FactorEntry values of m >= 1, by increasing prime. Each prime is
    certified once. Raises InvalidInputError when rho runs out of fuel on m
    or on some p-1 a certificate needs."""
    return _certified_factors(m, Fuel(RHO_FUEL))


def _pratt(p: int, fuel: Fuel) -> PrattCertificate:
    factors = _certified_factors(p - 1, fuel)
    exponents = [(p - 1) // q for q, _, _ in factors]
    for a in range(2, _PRATT_BASE_LIMIT):
        if all(pow(a, x, p) != 1 for x in exponents) and pow(a, p - 1, p) == 1:
            return PrattCertificate(a, factors)
    raise InvalidInputError(
        f"no base below {_PRATT_BASE_LIMIT} has order {p}-1 mod {p}; "
        "its primality is not certified")


def certified_product(entries, m: int) -> bool:
    """True when entries, a tuple or list of FactorEntry values whose prime
    and multiplicity are ints (bool is not) and whose certs are 'prime'
    PrimalityCerts that verify_primality accepts, multiply to m. Since
    product * q**e >= 2**(product's bits - 1 + (q's bits - 1) * e), a power that
    would take the running product past m is refused before it is taken."""
    if type(entries) not in (tuple, list):
        return False
    bound = m.bit_length()
    product = 1
    for entry in entries:
        if type(entry) is not FactorEntry:
            return False
        q, e, cert = entry
        if not type(q) is type(e) is int or q < 2 or not 1 <= e <= bound:
            return False
        if type(cert) is not PrimalityCert or cert.subject != q or cert.verdict != "prime":
            return False
        if product.bit_length() - 1 + (q.bit_length() - 1) * e >= bound:
            return False
        product *= q ** e
    return product == m and all(verify_primality(cert) for _, _, cert in entries)


def _verify_pratt(p: int, pratt: PrattCertificate | None) -> bool:
    if type(pratt) is not PrattCertificate or type(pratt.base) is not int:
        return False
    a = pratt.base
    return (certified_product(pratt.factors, p - 1) and pow(a, p - 1, p) == 1
            and all(pow(a, (p - 1) // q, p) != 1 for q, _, _ in pratt.factors))


def verify_primality(cert: PrimalityCert) -> bool:
    """Re-check a verdict from its own fields: a composite's witness by one
    product, a prime below TRIAL_BOUND by trial division, a prime above it by
    its Pratt certificate. Every number in it must be an int and every record
    of its own type: anything but a PrimalityCert, a composite's witness that
    is not a DividesWitness, or a pratt that is not a PrattCertificate, is
    refused, and so is a Pratt factor list that certified_product refuses."""
    if type(cert) is not PrimalityCert:
        return False
    n = cert.subject
    if type(n) is not int or abs(n) <= 1:
        return False
    if cert.verdict == "composite":
        w = cert.witness
        if type(w) is not DividesWitness or w.dividend != n or cert.pratt is not None:
            return False
        return (type(w.divisor) is type(w.quotient) is int and 1 < abs(w.divisor) < abs(n)
                and w.divisor * w.quotient == n)
    if cert.verdict != "prime" or cert.witness is not None:
        return False
    m = abs(n)
    if m < TRIAL_BOUND:
        return cert.pratt is None and _least_small_factor(m) in (None, m)
    return _verify_pratt(m, cert.pratt)


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


def _identity(x):
    return x


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
    a fresh Residue of x.value + k*b reduced, k = 1 + below(rng, 5), so
    congruence laws compare two distinct residues with equal values.

    Over a native_int ring (int_ring(), or a copy of its ops) the ops, the
    draw and the variants are int arithmetic mod |b|, the to_int/from_int
    roles expose the quotient map from the integers, and with |b| <= 2^8
    every residue is built once, with the ring, so the ops hand out shared,
    immutable objects (hash-consing) instead of a new one per result, read
    from that table with a subscript. Any other ring goes through its
    div_mod and ops.
    """
    eq = ring.base.eq
    zero = ring.ops["zero"]()
    if eq(b, zero).holds:
        raise InvalidInputError("zero modulus")
    if ring.ops["is_unit"](b):
        raise InvalidInputError(f"modulus {b} is invertible; the quotient collapses")
    one = ring.ops["one"]()

    res = partial(Residue, b)
    if "native_int" in ring.ops:
        m = abs(b)

        def rem(v):
            return v % m

        if m <= _TABLE_MAX:  # a subscript is cheaper than a call to res
            table = tuple(map(res, range(m)))
            res = table.__getitem__
            ops = {
                "add": lambda x, y: table[(x.value + y.value) % m],
                "neg": lambda x: table[-x.value % m],
                "mul": lambda x, y: table[x.value * y.value % m],
                "from_int": lambda v: table[v % m],
            }
        else:
            ops = {
                "add": lambda x, y: res((x.value + y.value) % m),
                "neg": lambda x: res(-x.value % m),
                "mul": lambda x, y: res(x.value * y.value % m),
                "from_int": lambda v: res(v % m),
            }
        ops["to_int"] = lambda x: x.value

        def r_eq(x, y):
            return YES if x.value == y.value and x.modulus == y.modulus else NO

        def draw(rng):
            return res(_mixed_int(rng) % m)

        def variants(x, rng):
            return Residue(b, (x.value + (1 + below(rng, 5)) * b) % m)
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

        def variants(x, rng):
            return Residue(b, rem(radd(x.value, rmul(1 + below(rng, 5), b))))
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
