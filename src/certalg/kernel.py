"""The trusted kernel: the record contract (Record, Decision), every
certificate record, and the verifier that re-checks it from the record's own
fields. It imports nothing from certalg, so no verifier runs code that reached
the verdict it checks. Below TRIAL_BOUND = 2^20, a strong probable-prime test to
bases 2 and 3 checks a 'prime' verdict: no composite below 1,373,653 passes
it (Pomerance, Selfridge and Wagstaff, Math. Comp. 1980).
"""

from __future__ import annotations

from collections import namedtuple
from operator import attrgetter


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


class DividesWitness(Record):
    """Certifies divisor | dividend via dividend = divisor * quotient."""

    __slots__ = ("divisor", "dividend", "quotient")


class BezoutCertificate(Record):
    """Extended-gcd result for the pair (a, b).

    Invariants: u*a + v*b = g, a = qa*g, b = qb*g, and g = 0 only when
    a = b = 0. Self-contained: carries the subject pair.
    """

    __slots__ = ("a", "b", "g", "u", "v", "qa", "qb")


def _members(e, xs) -> bool:
    """The membership rule, read from an exemplar e of the carrier: each of
    xs, a tuple or list, has e's exact type (bool is not int), each field of
    a record has the exact type of e's field, and where e has a modulus
    (Z/(m), on either route), each of xs has that modulus."""
    t = type(e)
    if {*map(type, xs)} - {t}:
        return False
    fields = () if t is int else getattr(t, "__slots__", ())  # a record's fields
    for f in fields:
        if {*map(type, map(attrgetter(f), xs))} - {type(getattr(e, f))}:
            return False
    return "modulus" not in fields or all(x.modulus == e.modulus for x in xs)


def check_divides(ring: StructureInstance, w: DividesWitness) -> bool:
    """Re-check dividend = divisor * quotient through the ring's ops. Anything
    but a DividesWitness is refused, and so is a field that is not a member
    of the ring (_members) by the ring's zero."""
    if type(w) is not DividesWitness:
        return False
    if not _members(ring.ops["zero"](), (w.divisor, w.dividend, w.quotient)):
        return False
    mul = ring.ops["mul"]
    return ring.base.eq(w.dividend, mul(w.divisor, w.quotient)).holds


def verify_bezout(ring: StructureInstance, cert: BezoutCertificate) -> bool:
    """Re-check the certificate's invariants from its own fields, through the
    ring's ops. Anything but a BezoutCertificate is refused, and so is a
    field that is not a member (_members) by the ring's zero."""
    if type(cert) is not BezoutCertificate:
        return False
    zero = ring.ops["zero"]()
    a, b, g, u, v, qa, qb = fields = (cert.a, cert.b, cert.g, cert.u, cert.v, cert.qa, cert.qb)
    if not _members(zero, fields):
        return False
    add = ring.ops["add"]
    mul = ring.ops["mul"]
    eq = ring.base.eq
    if not eq(add(mul(u, a), mul(v, b)), g).holds:
        return False
    if not eq(a, mul(qa, g)).holds:
        return False
    if not eq(b, mul(qb, g)).holds:
        return False
    if eq(g, zero).holds:
        return eq(a, zero).holds and eq(b, zero).holds
    return True


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
    verifier runs a strong probable-prime test and no certificate is attached.
    """

    __slots__ = ("subject", "verdict", "witness", "pratt")
    _defaults = (None, None)


# prime ** multiplicity, with cert a 'prime' PrimalityCert for prime
FactorEntry = namedtuple("FactorEntry", ("prime", "multiplicity", "cert"))

TRIAL_BOUND = 1 << 20


def _miller_rabin(m: int, bases: tuple) -> bool:
    """Strong probable-prime test to each of bases; m odd, above every base."""
    d, s = m - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in bases:
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


def certified_product(entries, m: int) -> bool:
    """True when entries, a tuple or list of FactorEntry values whose prime
    and multiplicity are ints (bool is not), whose primes strictly increase
    and whose certs are 'prime' PrimalityCerts that verify_primality
    accepts, multiply to m. Since product * q**e >= 2**(product's bits - 1
    + (q's bits - 1) * e), a power that would take the running product past
    m is refused before it is taken."""
    if type(entries) not in (tuple, list):
        return False
    bound = m.bit_length()
    product = last = 1
    for entry in entries:
        if type(entry) is not FactorEntry:
            return False
        q, e, cert = entry
        if not type(q) is type(e) is int or q <= last or not 1 <= e <= bound:
            return False
        if type(cert) is not PrimalityCert or cert.subject != q or cert.verdict != "prime":
            return False
        if product.bit_length() - 1 + (q.bit_length() - 1) * e >= bound:
            return False
        product *= q ** e
        last = q
    return product == m and all(verify_primality(cert) for _, _, cert in entries)


def _verify_pratt(p: int, pratt: PrattCertificate | None) -> bool:
    if type(pratt) is not PrattCertificate or type(pratt.base) is not int:
        return False
    a = pratt.base
    return (certified_product(pratt.factors, p - 1) and pow(a, p - 1, p) == 1
            and all(pow(a, (p - 1) // q, p) != 1 for q, _, _ in pratt.factors))


def verify_primality(cert: PrimalityCert) -> bool:
    """Re-check a verdict from its own fields: a composite's witness by one
    product, a prime below TRIAL_BOUND by a strong probable-prime test to
    bases 2 and 3, a prime above it by its Pratt certificate. Every number in
    it must be an int and every record of its own type: anything but a
    PrimalityCert, a composite's witness that is not a DividesWitness, or a
    pratt that is not a PrattCertificate, is refused, and so is a Pratt
    factor list that certified_product refuses."""
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
        return cert.pratt is None and (m < 4 or m % 6 in (1, 5) and _miller_rabin(m, (2, 3)))
    return _verify_pratt(m, cert.pratt)


class FactorizationData(Record):
    """unit * product(prime^multiplicity), entries sorted by prime."""

    __slots__ = ("unit", "entries")


def check_factorization(f: FactorizationData, x: int) -> bool:
    """Re-check a factorization against its nonzero subject x: the unit, an
    int, is the sign of x, and certified_product accepts the entries
    for |x|. The subject must be an int too (bool is not), and anything but a
    FactorizationData is refused."""
    if type(f) is not FactorizationData or type(x) is not int or x == 0:
        return False
    return (type(f.unit) is int and f.unit == (-1 if x < 0 else 1)
            and certified_product(f.entries, abs(x)))


class SortResult(Record):
    """ys sorted output; ord_cert holds the adjacent-pair order decisions;
    perm maps input positions to output positions (ys[perm[i]] is xs[i])."""

    __slots__ = ("ys", "ord_cert", "perm")


def verify_sort_result(dto: DecTotalOrder, xs, result: SortResult) -> bool:
    """Independent re-check: perm is a bijection of the positions carrying
    each input element onto an equal element of ys, and adjacent pairs
    re-decide as ordered. The bijection is what proves that ys is the
    input's multiset under the carrier's eq, so no separate count is taken.
    Anything but a SortResult, or one whose fields are not tuples or lists,
    is refused, and so is an element of xs or ys that is not a member
    (_members) by the carrier's first enumerated element, when it has one."""
    if type(result) is not SortResult:
        return False
    xs = list(xs)
    ys, perm, ord_cert = result.ys, result.perm, result.ord_cert
    if not {type(ys), type(perm), type(ord_cert)} <= {tuple, list}:
        return False
    enum = dto.base.enumeration
    if enum and not (_members(enum[0], xs) and _members(enum[0], ys)):
        return False
    n = len(xs)
    if len(ys) != n or len(perm) != n:
        return False
    if len(ord_cert) != max(n - 1, 0):
        return False
    if not {*map(type, perm)} <= {int} or sorted(perm) != list(range(n)):
        return False
    eq = dto.base.eq
    for i, x in enumerate(xs):
        if not eq(ys[perm[i]], x).holds:
            return False
    # every claimed decision must be a Decision that holds, and re-decide so
    leq = dto.leq
    for y, z, d in zip(ys, ys[1:], ord_cert):
        if not (type(d) is Decision and d.holds and leq(y, z).holds):
            return False
    return True
