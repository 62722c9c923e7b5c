"""Small-scope exhaustive soundness of the verifiers: every candidate in a
small box is checked against an oracle from nt_oracles, which imports
nothing from certalg. Most bugs show on small inputs (the small scope
hypothesis; Jackson, Software Abstractions, 2006).
"""

import itertools
import math
from collections import defaultdict

import pytest

import nt_oracles
from certalg import kernel
from certalg.certlists import int_order
from certalg.euclid import int_ring
from certalg.kernel import (NO, YES, BezoutCertificate, Decision, DividesWitness, FactorEntry,
                            FactorizationData, PrattCertificate, PrimalityCert, SortResult,
                            certified_product, check_factorization, verify_bezout,
                            verify_primality, verify_sort_result)

BOX = range(-3, 4)
# of the 7**7 = 823,543 certificates in the box, the oracle accepts this many
BEZOUT_ACCEPTED = 2841


def test_verify_bezout_on_every_certificate_in_the_box():
    """verify_bezout accepts exactly the certificates whose three equations
    hold, over all 823,543 with every field in [-3, 3]. Each accepted one
    has |g| = gcd(a, b). verify_bezout reads no role, so one ring covers its
    one route; the box takes 2 to 3 s under python -X dev, on 2 vCPUs with
    Python 3.11."""
    ring = int_ring()
    accepted = 0
    for fields in itertools.product(BOX, repeat=7):
        verdict = verify_bezout(ring, BezoutCertificate(*fields))
        assert verdict is nt_oracles.bezout_holds(*fields), fields
        if verdict:
            a, b, g = fields[:3]
            assert abs(g) == math.gcd(a, b), fields
            accepted += 1
    assert accepted == BEZOUT_ACCEPTED


# each ord_cert entry but YES, labelled whether it is a Decision that holds
ORD_ENTRIES = ((NO, False), (True, False), (Decision(True), True))
SORT_CASES = 648_524


def test_verify_sort_result_on_every_candidate_in_the_box():
    """verify_sort_result on int_order() accepts exactly what
    nt_oracles.sort_holds does, over every xs of length at most 3 over
    {0, 1, 2}, every ys of the same length, every perm with entries in
    {-1, ..., n} plus one with a float entry, and every ord_cert whose
    entries are YES but at most one, which is NO, True or a fresh
    Decision(True): 648,524 cases."""
    dto = int_order()
    cases = 0
    for n in range(4):
        words = list(itertools.product(range(3), repeat=n))
        perms = [*itertools.product(range(-1, n + 1), repeat=n), (0.0, *range(1, n))]
        ords = [((YES,) * (n - 1), True)] if n else [((), True)]
        ords += [((YES,) * i + (d,) + (YES,) * (n - 2 - i), ok)
                 for i in range(n - 1) for d, ok in ORD_ENTRIES]
        results = [(ys, perm, holds, SortResult(ys, ord_cert, perm))
                   for ys in words for perm in perms for ord_cert, holds in ords]
        for xs in words:
            for ys, perm, holds, result in results:
                verdict = verify_sort_result(dto, xs, result)
                assert verdict is nt_oracles.sort_holds(xs, ys, perm, holds), (xs, result)
            cases += len(results)
    assert cases == SORT_CASES


SMALL_PRIME_BOUND = 1 << 20


def test_verify_primality_on_every_small_prime_verdict():
    """verify_primality on a 'prime' verdict with no certificate, for every m
    in [2, 2^20), the whole range below TRIAL_BOUND where the kernel's strong
    probable-prime test to bases 2 and 3 decides: it accepts exactly where
    nt_oracles.sieve flags m. About 3 to 4 s under python -X dev, on 2 vCPUs
    with Python 3.11."""
    assert kernel.TRIAL_BOUND == SMALL_PRIME_BOUND
    prime = nt_oracles.sieve(SMALL_PRIME_BOUND)
    bad = [m for m in range(2, SMALL_PRIME_BOUND)
           if verify_primality(PrimalityCert(m, "prime")) is not (prime[m] == 1)]
    assert not bad, bad[:5]


# The factor-list box: FactorEntry values with primes in 0..15 and
# multiplicities in 0..4, each with one of three certs
FACTOR_PRIMES = range(16)
MULTIPLICITIES = range(5)
SUBJECTS = range(1, 61)
PRATT_BOUND = 16


def _entry_certs(q):
    """q's three certs, each labelled whether it certifies q as a prime: q's
    own 'prime' verdict (true iff q is prime; trial division re-checks it),
    another number's, and a 'composite' verdict on q."""
    d = next((d for d in range(2, q) if q % d == 0), 1)
    return ((PrimalityCert(q, "prime"), True), (PrimalityCert(q + 1, "prime"), False),
            (PrimalityCert(q, "composite", DividesWitness(d, q, q // d)), False))


@pytest.fixture(scope="module")
def factor_lists():
    """Every list of at most two entries of the box (57,841), each with its
    (prime, multiplicity) pairs in the order given when every entry is a
    certified prime power, or None, grouped by the product of its powers
    q**e."""
    prime = nt_oracles.sieve(len(FACTOR_PRIMES))
    entries = [(FactorEntry(q, e, cert), bool(ok and prime[q] and e >= 1))
               for q in FACTOR_PRIMES for e in MULTIPLICITIES for cert, ok in _entry_certs(q)]
    by_product = defaultdict(list)
    for k in range(3):
        for chosen in itertools.product(entries, repeat=k):
            pairs = [(q, e) for (q, e, _), _ in chosen] if all(ok for _, ok in chosen) else None
            product = math.prod(q ** e for (q, e, _), _ in chosen)
            by_product[product].append((tuple(entry for entry, _ in chosen), pairs))
    return by_product


def test_certified_product_on_every_list_in_the_box(factor_lists):
    """certified_product(entries, m), for every m in 1..60 and every list of
    the box (60 * 57,841 = 3,470,460 cases), accepts exactly the lists of
    certified prime powers whose (prime, multiplicity) pairs, in the order
    given, equal nt_oracles.trial_factor(m): no prime out of order or twice."""
    lists = [case for cases in factor_lists.values() for case in cases]
    assert len(lists) == 57_841
    for m in SUBJECTS:
        factors = nt_oracles.trial_factor(m)
        bad = [entries for entries, pairs in lists
               if certified_product(entries, m) is not (pairs == factors)]
        assert not bad, (m, bad[:3])


def test_check_factorization_on_every_nominal_factorization_in_the_box(factor_lists):
    """check_factorization on every subject x = +-1 .. +-60, with unit -1, 1
    or True, against each list of the box whose powers q**e multiply to |x|:
    certified_product refuses every other list for |x| (the box above).
    It accepts exactly where the unit is the int sign of x and the entries
    are certified prime powers whose pairs, in order, equal trial_factor(|x|):
    81,186 cases."""
    cases = 0
    for m in SUBJECTS:
        factors = nt_oracles.trial_factor(m)
        for x, unit in itertools.product((m, -m), (-1, 1, True)):
            unit_ok = type(unit) is int and unit == (1 if x > 0 else -1)
            for entries, pairs in factor_lists[m]:
                verdict = check_factorization(FactorizationData(unit, entries), x)
                assert verdict is (unit_ok and pairs == factors), (x, unit, entries)
            cases += len(factor_lists[m])
    assert cases == 81_186


def _certified_by_hand(q):
    """A 'prime' verdict on the prime q, built without is_prime: with no
    certificate below PRATT_BOUND, and from it on a Pratt certificate whose
    base is the least of order q-1 (nt_oracles.order_mod), over q-1's trial
    factorization with each prime certified the same way."""
    if q < PRATT_BOUND:
        return PrimalityCert(q, "prime")
    factors = tuple(FactorEntry(r, e, _certified_by_hand(r))
                    for r, e in nt_oracles.trial_factor(q - 1))
    base = next(a for a in range(2, q) if nt_oracles.order_mod(a, q) == q - 1)
    return PrimalityCert(q, "prime", pratt=PrattCertificate(base, factors))


def test_verify_primality_on_every_pratt_certificate_in_the_box(monkeypatch, factor_lists):
    """With kernel.TRIAL_BOUND lowered to 16 (the verifier reads it at call
    time), verify_primality on a 'prime' verdict for every p < 2^8: with no
    certificate, and with a Pratt certificate of every base below p over each
    factor list of the box whose powers q**e multiply to p-1 and exceed 1
    (certified_product refuses an entry q < 2 or e = 0 whatever the
    subject, as its box shows), and over p-1's trial factorization certified
    by hand. It accepts exactly the primes: below 16 with no certificate,
    and from 16 on with a base of order p-1 over a list of certified prime
    powers whose pairs, in order, equal p-1's trial factorization. 439,626
    cases."""
    monkeypatch.setattr(kernel, "TRIAL_BOUND", PRATT_BOUND)
    prime = nt_oracles.sieve(1 << 8)
    cases = 0
    for p in range(2, 1 << 8):
        factors = nt_oracles.trial_factor(p - 1)
        by_hand = tuple(FactorEntry(q, e, _certified_by_hand(q)) for q, e in factors)
        lists = [(entries, pairs) for entries, pairs in factor_lists[p - 1]
                 if all(q ** e > 1 for q, e, _ in entries)] + [(by_hand, factors)]
        accepted = verify_primality(PrimalityCert(p, "prime"))
        assert accepted is (p < PRATT_BOUND and prime[p] == 1), p
        for a in range(p):
            # only a prime p has a base of order p-1
            root = p >= PRATT_BOUND and prime[p] == 1 and nt_oracles.order_mod(a, p) == p - 1
            for entries, pairs in lists:
                verdict = verify_primality(PrimalityCert(p, "prime",
                                                         pratt=PrattCertificate(a, entries)))
                assert verdict is (root and pairs == factors), (p, a, entries)
                accepted |= verdict
        assert accepted is (prime[p] == 1), p
        cases += 1 + p * len(lists)
    assert cases == 439_626
