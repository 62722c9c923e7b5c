"""Certified primality and factoring of integers, and prime split; the
certificates and their verifiers are in kernel.

Below TRIAL_BOUND = 2^20, trial division by the primes below 2^10 (one gcd
with their product) decides. At and above it, the kernel's Miller-Rabin on
the first 13 prime bases decides (deterministic below 3.3e24; Sorenson and
Webster, Math. Comp. 2017) and Pollard rho in Brent's variant finds a
composite's divisor. A 'prime' verdict above the bound carries a Pratt
certificate (Pratt, SIAM J. Comput. 1975): a base of order p-1 plus the
prime factors of p-1 as FactorEntry values, which verify_primality checks
with certified_product and modular powers alone. Rho work is bounded by one
errors.Fuel of RHO_FUEL word-steps per call; past it, InvalidInputError is
raised rather than an uncertified verdict returned.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import compress, count

from .errors import Fuel, InvalidInputError
from .euclid import extended_gcd
from .kernel import (TRIAL_BOUND, DividesWitness, FactorEntry, PrattCertificate, PrimalityCert,
                     _miller_rabin, check_divides)


def _sieve(n: int) -> bytearray:
    """Primality flags for 0..n-1 (Eratosthenes)."""
    flags = bytearray([1]) * n
    flags[:2] = b"\0\0"
    for i in range(2, math.isqrt(n - 1) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, n, i)))
    return flags


_SMALL_LIMIT = math.isqrt(TRIAL_BOUND)  # 2^10: trial division decides below TRIAL_BOUND
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
    if _miller_rabin(m, _MR_BASES):
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
        if k < TRIAL_BOUND or _miller_rabin(k, _MR_BASES):
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
