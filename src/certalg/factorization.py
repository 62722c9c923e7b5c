"""Integer factorization with a primality certificate on every prime, plus
a sampled uniqueness suite of two laws, run by the law engine's runner.

factor strips the primes below 2^10, keeps what Miller-Rabin calls prime
and splits the rest with Pollard rho (primes.certified_factors). Each prime
gets its certificate once: trial division re-checks a prime below 2^20, and
a Pratt certificate proves a larger one.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvalidInputError, StructuralError
from .structures import DSet, Kind, StructureInstance, below, seeded
from .euclid import int_ring
from .kernel import (DividesWitness, FactorEntry, FactorizationData, check_divides,
                     check_factorization)
from .primes import certified_factors, prime_split
from .numbers import pos_nat_dset


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


def check_unique_sampled(ring: StructureInstance, seed: int = 1,
                         budget: int = 300) -> LawReport:
    """Sampled uniqueness evidence for a factorization-capable instance: two
    laws over pairs (x, y) of the carrier, on check_laws' runner and sweep.

    independent-factorizations-agree: factor(x*y) re-checks and equals the
    merge of factor(x) and factor(y); a pair with a zero passes.
    prime-split-witness: prime_split on the least prime p of x*y yields a
    witness that re-checks, has divisor p and divides the side it names.
    """
    from .laws import _Law, _run_laws
    for role in ("factor", "prime_split"):
        if role not in ring.ops:
            raise StructuralError(f"{ring.name}: uniqueness check needs op {role!r}")
    do_factor = ring.ops["factor"]
    split = ring.ops["prime_split"]
    mul = ring.ops["op"] if "op" in ring.ops else ring.ops["mul"]

    def agree(x, y):
        if x == 0 or y == 0:
            return True
        xy = mul(x, y)
        direct = do_factor(xy)
        return check_factorization(direct, xy) and factorizations_equal(
            direct, merge_factorizations(do_factor(x), do_factor(y)))

    def split_witness(x, y):
        xy = mul(x, y)
        entries = do_factor(xy).entries if xy != 0 else ()
        if not entries:  # 0 and the units have no least prime
            return True
        p = entries[0].prime  # entries are sorted by prime
        try:
            side, witness = split(p, x, y, DividesWitness(p, xy, xy // p))
        except InvalidInputError:
            return False
        return (check_divides(int_ring(), witness) and witness.divisor == p
                and witness.dividend == (x if side == "left" else y))

    laws = [_Law("independent-factorizations-agree", 2, agree),
            _Law("prime-split-witness", 2, split_witness)]
    return _run_laws(ring, laws, seed, budget, 4)


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
