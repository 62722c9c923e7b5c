"""Integer factorization with a primality certificate on every prime, plus
a sampled uniqueness suite driven by prime_split witnesses.

factor strips the primes below 2^10, keeps what Miller-Rabin calls prime
and splits the rest with Pollard rho (euclid.certified_factors). Each prime
gets its certificate once: trial division re-checks a prime below 2^20, and
a Pratt certificate proves a larger one.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .errors import InvalidInputError, StructuralError
from .structures import DSet, Kind, LawReport, Record, StructureInstance, below, seeded
from .euclid import (DividesWitness, FactorEntry, certified_factors, certified_product,
                     check_divides, int_ring, prime_split)
from .numbers import pos_nat_dset


class FactorizationData(Record):
    """unit * product(prime^multiplicity), entries sorted by prime."""

    __slots__ = ("unit", "entries")


def factor(x: int) -> FactorizationData:
    """Certified factorization of a nonzero integer. Raises InvalidInputError
    when Pollard rho runs out of fuel on x or on some p-1 of a certificate."""
    if x == 0:
        raise InvalidInputError("zero has no factorization")
    return FactorizationData(-1 if x < 0 else 1, certified_factors(abs(x)))


def product_of(f: FactorizationData) -> int:
    acc = f.unit
    for e in f.entries:
        acc *= e.prime ** e.multiplicity
    return acc


def _normalized_entries(f: FactorizationData):
    """Associate-normalize: the unit, and each prime made positive with its
    multiplicities added, sorted by prime; an odd power of a negative prime
    folds its sign into the unit."""
    unit, counts = f.unit, {}
    for e in f.entries:
        if e.prime < 0 and e.multiplicity % 2:
            unit = -unit
        p = abs(e.prime)
        counts[p] = counts.get(p, 0) + e.multiplicity
    return unit, tuple(sorted(counts.items()))


def factorizations_equal(f1: FactorizationData, f2: FactorizationData) -> bool:
    return _normalized_entries(f1) == _normalized_entries(f2)


def merge_factorizations(f1: FactorizationData, f2: FactorizationData) -> FactorizationData:
    """Factorization of a product from the factors' data, adding the
    multiplicities of each prime and multiplying the units."""
    counts, certs = {}, {}
    for e in f1.entries + f2.entries:
        counts[e.prime] = counts.get(e.prime, 0) + e.multiplicity
        certs[e.prime] = e.cert
    entries = tuple(FactorEntry(p, m, certs[p]) for p, m in sorted(counts.items()))
    return FactorizationData(f1.unit * f2.unit, entries)


def check_factorization(f: FactorizationData, x: int) -> bool:
    """Re-check a factorization against its nonzero subject x: the unit, an
    int, is the sign of x, and euclid.certified_product accepts the entries
    for |x|. The subject must be an int too (bool is not), and anything but a
    FactorizationData is refused."""
    if type(f) is not FactorizationData or type(x) is not int or x == 0:
        return False
    return (type(f.unit) is int and f.unit == (-1 if x < 0 else 1)
            and certified_product(f.entries, abs(x)))


_FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def check_unique_sampled(ring: StructureInstance, seed: int = 1,
                         budget: int = 300) -> LawReport:
    """Sampled uniqueness evidence for a factorization-capable instance.

    Per case: (i) the factorization reconstructs its subject, (ii) the
    directly computed factorization of a product agrees with the merge of
    the factors' data, (iii) a prime_split run on (p, a, b) with p | a*b
    yields a witness that re-checks.
    """
    for role in ("factor", "prime_split"):
        if role not in ring.ops:
            raise StructuralError(f"{ring.name}: uniqueness check needs op {role!r}")
    rng = random.Random(seed)
    do_factor = ring.ops["factor"]
    split = ring.ops["prime_split"]
    group_like = "op" in ring.ops
    mul = ring.ops["op"] if group_like else ring.ops["mul"]
    failures = []
    cases = 0
    lo = 1 if group_like else -(10**6)
    for _ in range(budget):
        x = 0
        while x == 0:
            x = lo + below(rng, 10**6 + 1 - lo)
        cases += 1
        fx = do_factor(x)
        if not check_factorization(fx, x):
            failures.append(("factorization-reconstructs", (x,)))

        a = 1 + below(rng, 10**3)
        b = 1 + below(rng, 10**3)
        cases += 1
        direct = do_factor(mul(a, b))
        merged = merge_factorizations(do_factor(a), do_factor(b))
        if not factorizations_equal(direct, merged):
            failures.append(("independent-factorizations-agree", (a, b)))

        p = _FIRST_PRIMES[below(rng, len(_FIRST_PRIMES))]
        if rng.random() < 0.5:
            a2, b2 = a * p, b
        else:
            a2, b2 = a, b * p
        w = DividesWitness(p, a2 * b2, (a2 * b2) // p)
        cases += 1
        try:
            side, witness = split(p, a2, b2, w)
            ok = check_divides(int_ring(), witness)
            ok = ok and witness.divisor == p
            ok = ok and witness.dividend == (a2 if side == "left" else b2)
        except InvalidInputError:
            ok = False
        if not ok:
            failures.append(("prime-split-witness", (p, a2, b2)))
    return LawReport(ring.kind, cases, tuple(failures))


@lru_cache(maxsize=None)
def int_factorization_ring() -> StructureInstance:
    """The integers with factorization capability; samples stay at trial-division scale."""
    base = int_ring()
    ops = dict(base.ops)
    ops["factor"] = factor
    ops["prime_split"] = lambda p, a, b, w: prime_split(base, p, a, b, w)

    sample = seeded(lambda rng: -(10**6) + below(rng, 2 * 10**6 + 1))
    dset = DSet("int<=1e6", base.base.eq, sample, base.base.enumeration)
    return StructureInstance(Kind.UNIQUE_FACTORIZATION_RING, dset, ops, "int-ufd")


@lru_cache(maxsize=None)
def pos_nat_factorization_monoid() -> StructureInstance:
    """Nonzero naturals under multiplication with factoring into primes."""
    ring = int_ring()
    ops = {
        "op": lambda a, b: a * b,
        "identity": lambda: 1,
        "factor": factor,
        "prime_split": lambda p, a, b, w: prime_split(ring, p, a, b, w),
    }

    base = pos_nat_dset()
    dset = DSet("nat>=1<=1e6", base.eq, seeded(lambda rng: 1 + below(rng, 10**6)),
                base.enumeration)
    return StructureInstance(Kind.FACTORIZATION_MONOID, dset, ops, "nat-factor-monoid")
