"""Number-theory oracles for differential tests; nothing here imports certalg.

trial_is_prime and trial_factor are the trial-division routines the library
used before primality got certificates; sieve and strong_probable_prime are
independent of both. bezout_holds is the Bezout certificate's three
equations, sort_holds a sort certificate's conditions and order_mod the
multiplicative order, for the small-scope tests of the verifiers.
"""

import math

# Miller-Rabin on the first 12 primes is exact below 3.18e23 (Sorenson and
# Webster 2017), which covers every 64-bit input
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def sieve(limit):
    """is_prime flags for 0..limit-1."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(range(i * i, limit, i)))
    return flags


def trial_is_prime(n):
    """(verdict, least divisor or None) by trial division, for |n| >= 2."""
    m = abs(n)
    if m % 2 == 0 and m != 2:
        return "composite", 2
    d = 3
    while d <= math.isqrt(m):
        if m % d == 0:
            return "composite", d
        d += 2
    return "prime", None


def trial_factor(m):
    """Sorted (prime, multiplicity) pairs of m >= 1 by trial division."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            k = 0
            while m % d == 0:
                m //= d
                k += 1
            out.append((d, k))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def strong_probable_prime(n):
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    s = (n - 1 & -(n - 1)).bit_length() - 1
    d = (n - 1) >> s
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        if not any(pow(x, 1 << j, n) == n - 1 for j in range(1, s)):
            return False
    return True


def next_prime(n):
    n += 1
    while not strong_probable_prime(n):
        n += 1
    return n


def bezout_holds(a, b, g, u, v, qa, qb):
    """Whether (a, b, g, u, v, qa, qb) is a Bezout certificate:
    u*a + v*b = g, a = qa*g and b = qb*g."""
    return u * a + v * b == g and a == qa * g and b == qb * g


def sort_holds(xs, ys, perm, ord_cert_holds):
    """Whether (ys, perm) certifies sorting xs, given whether the order
    certificate beside them holds: ys is sorted, and perm, a sequence of ints,
    maps the positions of xs one to one onto those of ys with ys[perm[i]]
    equal to xs[i]."""
    n = len(xs)
    return (ord_cert_holds and len(ys) == len(perm) == n
            and all(type(i) is int for i in perm) and set(perm) == set(range(n))
            and all(ys[perm[i]] == xs[i] for i in range(n))
            and all(ys[i] <= ys[i + 1] for i in range(n - 1)))


def order_mod(a, m):
    """The least k >= 1 with a**k = 1 (mod m), by repeated multiplication, or
    None when there is none (a and m not coprime), for m >= 2."""
    x = a % m
    for k in range(1, m):
        if x == 1:
            return k
        x = x * a % m
    return None
