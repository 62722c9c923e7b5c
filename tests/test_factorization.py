"""Factorization with per-prime certificates."""

import hashlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import nt_oracles
import certalg
from certalg import primes
from certalg.errors import InvalidInputError, StructuralError
from certalg.factorization import (_normalized_entries, check_unique_sampled,
                                   factor, factorizations_equal,
                                   int_factorization_ring,
                                   merge_factorizations,
                                   pos_nat_factorization_monoid, product_of)
from certalg.kernel import (TRIAL_BOUND, DividesWitness, FactorEntry, FactorizationData,
                            PrimalityCert, check_factorization, verify_primality)
from certalg.laws import check_laws
from certalg.primes import is_prime
from certalg.structures import Kind, StructureInstance

# oracle: sympy.factorint, frozen
FACTOR_TABLE = {
    2: {2: 1},
    12: {2: 2, 3: 1},
    60: {2: 2, 3: 1, 5: 1},
    97: {97: 1},
    360: {2: 3, 3: 2, 5: 1},
    1024: {2: 10},
    9999: {3: 2, 11: 1, 101: 1},
    10007: {10007: 1},
    123456: {2: 6, 3: 1, 643: 1},
}


@pytest.mark.parametrize("n,expected", sorted(FACTOR_TABLE.items()))
def test_factor_matches_frozen_oracle(n, expected):
    data = factor(n)
    assert data.unit == 1
    assert {e.prime: e.multiplicity for e in data.entries} == expected


def test_factor_units_and_negatives():
    assert factor(1) == FactorizationData(1, ())
    assert factor(-1).unit == -1
    data = factor(-60)
    assert data.unit == -1
    assert {e.prime: e.multiplicity for e in data.entries} == {2: 2, 3: 1, 5: 1}


def test_factor_rejects_zero():
    with pytest.raises(InvalidInputError):
        factor(0)


def test_every_entry_carries_a_reverifiable_certificate():
    for e in factor(360).entries:
        assert isinstance(e.cert, PrimalityCert)
        assert e.cert.subject == e.prime
        assert e.cert.verdict == "prime"


def test_product_of_reconstructs():
    for n in list(range(2, 400)) + [-17, -360, 9973]:
        assert product_of(factor(n)) == n


def test_check_factorization_accepts_genuine_data():
    for n in (2, 30, -12, 97, 1):
        assert check_factorization(factor(n), n)


def test_check_factorization_rejects_forgeries():
    good = factor(12)
    # wrong subject
    assert not check_factorization(good, 18)
    # non-prime factor smuggled in with a forged certificate
    fake_cert = PrimalityCert(4, "prime", None)
    forged = FactorizationData(1, (FactorEntry(4, 1, fake_cert),
                                   FactorEntry(3, 1, is_prime(3))))
    assert not check_factorization(forged, 12)
    # wrong multiplicity
    wrong = FactorizationData(1, (FactorEntry(2, 3, is_prime(2)),
                                  FactorEntry(3, 1, is_prime(3))))
    assert not check_factorization(wrong, 12)
    # bad unit
    assert not check_factorization(FactorizationData(2, ()), 2)
    # entries out of order, or a prime repeated: the product and every cert
    # hold, but the entries are not sorted by prime
    c2, c3 = is_prime(2), is_prime(3)
    assert check_factorization(FactorizationData(1, (FactorEntry(2, 1, c2),
                                                     FactorEntry(3, 1, c3))), 6)
    assert not check_factorization(FactorizationData(1, (FactorEntry(3, 1, c3),
                                                         FactorEntry(2, 1, c2))), 6)
    assert not check_factorization(FactorizationData(1, (FactorEntry(2, 1, c2),
                                                         FactorEntry(2, 1, c2))), 4)


def test_check_factorization_refuses_what_is_not_its_record():
    good = factor(12)
    assert check_factorization(good, 12)
    assert check_factorization(FactorizationData(1, list(good.entries)), 12)
    for probe in (None, "12", (good.unit, good.entries), is_prime(12)):
        assert check_factorization(probe, 12) is False, probe


@pytest.mark.parametrize("entries", [
    None, (4, 3), ((2, 2), (3, 1)),
    (FactorEntry(2, 2, None), FactorEntry(3, 1, is_prime(3))),
    ((2, 2, is_prime(2)), (3, 1, is_prime(3))),
], ids=["none", "ints", "pairs", "entry-cert-none", "plain-triples"])
def test_check_factorization_refuses_entries_of_another_type(entries):
    assert check_factorization(FactorizationData(1, entries), 12) is False


def test_check_factorization_rejects_data_that_is_not_int():
    # p ** 1.0 is a float that rounds to 2^64, so the product matched
    p = 2**64 - 59
    assert check_factorization(FactorizationData(1, (FactorEntry(p, 1, is_prime(p)),)), p)
    assert not check_factorization(
        FactorizationData(1, (FactorEntry(p, 1.0, is_prime(p)),)), 2**64)
    two, three, five = (FactorEntry(q, 1, is_prime(q)) for q in (2, 3, 5))
    four = FactorEntry(2, 2, is_prime(2))
    assert check_factorization(FactorizationData(1, (four, three, five)), 60)
    forgeries = [
        (FactorizationData(1.0, (four, three, five)), 60),
        (FactorizationData(True, (four, three, five)), 60),
        (FactorizationData(1, (FactorEntry(2, 2.0, is_prime(2)), three, five)), 60),
        (FactorizationData(1, (two, FactorEntry(3, True, is_prime(3)), five)), 30),
        (FactorizationData(1, (two, FactorEntry(3.0, 1, is_prime(3)), five)), 30),
        (FactorizationData(1, (two, three, five)), 30.0),
        (FactorizationData(1, ()), True),
    ]
    for data, x in forgeries:
        assert not check_factorization(data, x), (data, x)


@pytest.mark.parametrize("entry, subject", [
    # 3 ** 10**9 alone would run for minutes: the exponent is past 4's bit length
    ("FactorEntry(3, 10**9, is_prime(3))", "4"),
    # a 9,510-bit "prime" to the 4,755th power: the exponent is within the
    # bit-length bound, but the power alone has 45 million bits (about 24 s
    # to compute on 2 vCPUs with Python 3.11)
    ("FactorEntry(3**6000 - 2, 4755, PrimalityCert(3**6000 - 2, 'prime'))", "3**6000"),
], ids=["multiplicity", "prime"])
def test_hang_guard_check_factorization_refuses_a_power_past_the_subject(entry, subject):
    # refused before the power is taken; a child process, so that a hang
    # fails the test after 5 s
    code = ("from certalg.kernel import (FactorEntry, FactorizationData, PrimalityCert,\n"
            "                            check_factorization)\n"
            "from certalg.primes import is_prime\n"
            f"print(check_factorization(FactorizationData(1, ({entry},)), {subject}))\n")
    env = dict(os.environ)
    src = str(Path(certalg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_factorizations_equal_up_to_order_and_sign():
    a = factor(36)
    b = FactorizationData(1, (FactorEntry(3, 2, is_prime(3)),
                              FactorEntry(2, 2, is_prime(2))))
    assert factorizations_equal(a, b)
    c = FactorizationData(-1, (FactorEntry(-2, 2, is_prime(2)),
                               FactorEntry(3, 2, is_prime(3))))
    # (-2)^2 absorbs no sign; the explicit -1 unit makes this -36
    assert not factorizations_equal(a, c)
    # (-3)^3 moves its sign into the unit, and a repeated prime's
    # multiplicities add: (-3)^3 * 2 * 2 = -108 = -1 * 2^2 * 3^3
    d = FactorizationData(1, (FactorEntry(-3, 3, is_prime(3)), FactorEntry(2, 1, is_prime(2)),
                              FactorEntry(2, 1, is_prime(2))))
    assert factorizations_equal(d, factor(-108))
    assert not factorizations_equal(d, factor(108))
    assert _normalized_entries(d) == (-1, ((2, 2), (3, 3)))
    two, three, five = is_prime(2), is_prime(3), is_prime(5)
    # a negative prime: an odd power moves its sign into the unit, an even
    # power does not
    odd = FactorizationData(1, (FactorEntry(-5, 1, five), FactorEntry(-3, 3, three)))
    assert _normalized_entries(odd) == (1, ((3, 3), (5, 1)))
    assert _normalized_entries(FactorizationData(-1, (FactorEntry(-3, 1, three),))) \
        == (1, ((3, 1),))
    even = FactorizationData(-1, (FactorEntry(-2, 4, two), FactorEntry(3, 1, three)))
    assert _normalized_entries(even) == (-1, ((2, 4), (3, 1)))
    # one prime split over several entries, with both signs and apart
    split = FactorizationData(1, (FactorEntry(2, 1, two), FactorEntry(5, 2, five),
                                  FactorEntry(-2, 1, two), FactorEntry(2, 3, two)))
    assert _normalized_entries(split) == (-1, ((2, 5), (5, 2)))
    assert factorizations_equal(split, factor(-800))
    # no entries: the unit alone
    assert _normalized_entries(FactorizationData(-1, ())) == (-1, ())
    assert factorizations_equal(FactorizationData(1, ()), factor(1))
    assert not factorizations_equal(FactorizationData(-1, ()), factor(1))


def test_merge_factorizations_is_multiplicative():
    for a, b in [(12, 35), (8, 6), (-9, 14), (97, 97)]:
        merged = merge_factorizations(factor(a), factor(b))
        assert check_factorization(merged, a * b)
        assert factorizations_equal(merged, factor(a * b))


def test_unique_factorization_sampler_on_integers():
    report = check_unique_sampled(int_factorization_ring(), seed=1, budget=200)
    assert report.ok, report.failures[:3]


def test_unique_factorization_sampler_on_positive_naturals():
    report = check_unique_sampled(pos_nat_factorization_monoid(), seed=4, budget=200)
    assert report.ok, report.failures[:3]


def test_unique_sampler_requires_factorization_ops():
    from certalg.numbers import nat_add_monoid
    with pytest.raises(StructuralError):
        check_unique_sampled(nat_add_monoid(), budget=10)


def _with_ops(inst, **ops):
    return StructureInstance(inst.kind, inst.base, dict(inst.ops, **ops), inst.name)


def _drops_a_prime(f):
    def factor_op(x):
        data = f(x)
        return FactorizationData(data.unit, data.entries[:-1])
    return factor_op


def _names_the_other_side(split):
    def split_op(p, a, b, w):
        side, witness = split(p, a, b, w)
        return ("right" if side == "left" else "left"), witness
    return split_op


def _certifies_another_product(split):
    def split_op(p, a, b, w):  # split refuses the witness: InvalidInputError
        return split(p, a, b, DividesWitness(p, w.dividend + p, w.quotient + 1))
    return split_op


@pytest.mark.parametrize("make", [int_factorization_ring, pos_nat_factorization_monoid])
def test_uniqueness_suite_names_each_broken_op(make):
    inst = make()
    for broken, law in [
        (_with_ops(inst, factor=_drops_a_prime(inst.ops["factor"])),
         "independent-factorizations-agree"),
        (_with_ops(inst, prime_split=_names_the_other_side(inst.ops["prime_split"])),
         "prime-split-witness"),
        (_with_ops(inst, prime_split=_certifies_another_product(inst.ops["prime_split"])),
         "prime-split-witness"),
    ]:
        report = check_unique_sampled(broken, seed=1, budget=300)
        assert report.failures, law
        assert {name for name, _ in report.failures} == {law}


# sha256 over repr(x) of every x that the factor role receives, in call
# order, during check_unique_sampled at seeds 1, 2 and 3 with budget 300,
# first 16 hex digits: a change to which pairs the suite draws, or how it
# factors them, shows up even when every case passes
UNIQUE_CASE_DIGESTS = {
    "int-ufd": ("dc0f02e289ec190e", "0a789641c85168e3", "571f1b6829cb4adc"),
    "nat-factor-monoid": ("33949f24c649f32d", "46995435f08c0189", "aef949832267ce0c"),
}


@pytest.mark.parametrize("make", [int_factorization_ring, pos_nat_factorization_monoid])
def test_every_uniqueness_case_is_pinned(make):
    inst = make()
    got = []
    for seed in (1, 2, 3):
        h = hashlib.sha256()

        def spy(x, factor_op=inst.ops["factor"]):
            h.update(repr(x).encode())
            return factor_op(x)

        assert check_unique_sampled(_with_ops(inst, factor=spy), seed=seed, budget=300).ok
        got.append(h.hexdigest()[:16])
    assert tuple(got) == UNIQUE_CASE_DIGESTS[inst.name]


def test_shipped_factorization_instances_are_lawful():
    ufd = int_factorization_ring()
    assert ufd.kind is Kind.UNIQUE_FACTORIZATION_RING
    assert check_laws(ufd, seed=1, budget=120).ok
    mon = pos_nat_factorization_monoid()
    assert mon.kind is Kind.FACTORIZATION_MONOID
    assert check_laws(mon, seed=1, budget=120).ok


# ================================================================
# the Miller-Rabin / Pollard rho route, checked against trial division
# ================================================================


def test_factor_differential_below_two_hundred_thousand():
    for n in range(1, 200_000):
        data = factor(n)
        assert [(e.prime, e.multiplicity) for e in data.entries] == \
            nt_oracles.trial_factor(n)
        for e in data.entries:
            assert e.cert.subject == e.prime and e.cert.verdict == "prime"
            assert verify_primality(e.cert)


def test_factor_seeded_64_bit_values():
    rng = random.Random(31337)
    values = [rng.getrandbits(64) for _ in range(80)]
    values += [nt_oracles.next_prime(rng.getrandbits(32))
               * nt_oracles.next_prime(rng.getrandbits(32)) for _ in range(5)]
    values += [2**64 + 1, 2**61 - 1, 3**40, -(2**63 - 25)]
    for n in values:
        data = factor(n)
        assert product_of(data) == n
        assert all(nt_oracles.strong_probable_prime(e.prime) for e in data.entries)
        assert all((e.cert.pratt is not None) == (e.prime >= TRIAL_BOUND)
                   for e in data.entries)
        assert check_factorization(data, n)


def test_factor_of_an_eighteen_digit_prime_is_fast_and_certified():
    n = 999999999999999989
    t = time.perf_counter()
    data = factor(n)
    assert time.perf_counter() - t < 0.5
    assert [(e.prime, e.multiplicity) for e in data.entries] == [(n, 1)]
    assert check_factorization(data, n)


def test_factor_out_of_fuel_raises_instead_of_guessing(monkeypatch):
    rng = random.Random(3)
    n = (nt_oracles.next_prime(rng.getrandbits(32) | 1 << 31)
         * nt_oracles.next_prime(rng.getrandbits(32) | 1 << 31))
    monkeypatch.setattr(primes, "RHO_FUEL", 256)
    with pytest.raises(InvalidInputError, match="fuel"):
        factor(n)
