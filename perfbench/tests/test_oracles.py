"""The benchmark's oracles accept right answers and reject forged ones.

Run with: python3 -m pytest perfbench/tests
"""

import json
import math
import random
from fractions import Fraction

import certalg as ca
import certify_workload as certify
import cli_workload as cli
import oracles
from harness import Job

RING = ca.int_ring()


def test_miller_rabin_matches_trial_division():
    for n in range(-5, 5000):
        trial = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert oracles.is_prime(n) == trial
    assert oracles.is_prime(2**61 - 1) and not oracles.is_prime(2**61 + 1)


def test_bezout_forged_u_rejected():
    a, b = 240, -46
    cert = ca.extended_gcd(RING, a, b)
    fields = (cert.g, cert.u, cert.v, cert.qa, cert.qb)
    assert oracles.bezout_ok(a, b, *fields)
    assert not oracles.bezout_ok(a, b, cert.g, cert.u + 1, cert.v, cert.qa, cert.qb)
    forged = ca.BezoutCertificate(a, b, cert.g, cert.u + 1, cert.v, cert.qa, cert.qb)
    job = Job("egcd", (a, b))
    assert certify.check(job, (cert, True)) is None
    assert certify.check(job, (forged, True)) == "oracle"


def test_sort_swapped_perm_rejected():
    xs = [5, 3, 9, 1, 3]
    ys, perm = oracles.sort_oracle(xs)
    assert ys == (1, 3, 3, 5, 9) and all(ys[perm[i]] == x for i, x in enumerate(xs))
    swapped = list(perm)
    swapped[0], swapped[2] = swapped[2], swapped[0]
    result = ca.sort_certified(ca.int_order(), xs)
    forged = ca.SortResult(result.ys, result.ord_cert, tuple(swapped))
    job = Job("sort", ("int", xs), expect=(ys, perm))
    assert certify.check(job, (result, True)) is None
    assert certify.check(job, (forged, True)) == "oracle"


def test_non_canonical_fraction_rejected():
    assert oracles.fraction_ok(Fraction(1, 2), 1, 2)
    assert not oracles.fraction_ok(Fraction(1, 2), 2, 4)
    assert not oracles.fraction_ok(Fraction(-1, 2), 1, -2)
    job = Job("frac", (None, ()), expect=Fraction(1, 2))
    assert certify.check(job, (ca.Fraction(2, 4), True)) == "oracle"


def test_wrong_primality_verdicts_rejected():
    assert oracles.primality_ok(97, "prime")
    assert not oracles.primality_ok(97, "composite", 1, 97)
    assert not oracles.primality_ok(91, "prime")
    assert oracles.primality_ok(91, "composite", 7, 13)
    assert not oracles.primality_ok(91, "composite", 7, 12)
    job = Job("primality", (91,))
    assert certify.check(job, (ca.PrimalityCert(91, "prime"), True)) == "oracle"


def test_factorization_and_power_forgeries_rejected():
    assert oracles.factorization_ok(-360, -1, [(2, 3), (3, 2), (5, 1)])
    assert not oracles.factorization_ok(360, 1, [(4, 1), (2, 1), (3, 2), (5, 1)])
    assert not oracles.factorization_ok(360, 1, [(3, 2), (2, 3), (5, 1)])
    assert oracles.power_ok("zmod", 3, 1000, pow(3, 1000, 97), 9, 97)
    assert not oracles.power_ok("zmod", 3, 1000, pow(3, 1000, 97), 10, 97)
    assert not oracles.power_ok("nat-mul", 3, 5, 3**5 + 1, 2)


def test_prove_pairs_are_right_in_the_models():
    rng = random.Random(4)
    for theory in certify.THEORIES:
        for depth in (3, 5, 8):
            (t, yes, v_yes), (_, no, v_no) = certify.prove_pairs(rng, theory, depth)
            assert v_yes and not v_no
            assert oracles.find_refutation(theory, t, yes, rng) is None
            assert oracles.find_refutation(theory, t, no, rng) is not None


def test_cli_checks_reject_forged_json_and_wrong_exits():
    a, b = 12, -8
    doc = {"g": 4, "u": 1, "v": 1, "qa": 3, "qb": -2, "verified": True}
    job = Job("egcd", (("egcd", "12", "-8"), None), expect=(0, (a, b)))
    assert cli.check(job, (0, json.dumps(doc))) is None
    assert cli.check(job, (0, json.dumps(dict(doc, u=2)))) == "oracle"
    assert cli.check(job, (1, "")) == "exit_mismatch"
    assert cli.check(job, (None, "")) == "timeout"


def test_poly_text_round_trip():
    assert cli._parse_poly_text("-3*x^5 + x^2 - x + 1") == {5: -3, 2: 1, 1: -1, 0: 1}
    assert cli._parse_poly_text("0") == {}
    assert cli._parse_poly_text("2*x") == {1: 2}
