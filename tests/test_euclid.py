"""Division, extended gcd certificates, primality, residue rings/fields."""

import math
import random
import time
from collections import Counter, namedtuple
from functools import partial

import pytest

import nt_oracles
from roles import replaced, spied, without_roles
from certalg import euclid, kernel, primes
from certalg.errors import (CompositeModulusError, InvalidInputError,
                            StructuralError)
from certalg.euclid import (Residue, euclidean_div_mod, extended_gcd, int_ring,
                            make_residue, residue_field, residue_ring)
from certalg.factorization import int_factorization_ring
from certalg.fractions import Fraction, add_optimized, mk_fraction, mul_fractions
from certalg.kernel import (NO, TRIAL_BOUND, YES, BezoutCertificate, DividesWitness,
                            FactorEntry, PrattCertificate, PrimalityCert, check_divides,
                            verify_bezout, verify_primality)
from certalg.laws import check_laws
from certalg.primes import is_prime, prime_split
from certalg.structures import Kind, StructureInstance, validate_instance


@pytest.fixture(scope="module")
def ring():
    return int_ring()


# ================================================================
# canonical division
# ================================================================

# divmod with remainder forced into [0, |b|); pinned cases cover every
# sign combination
DIVMOD_CASES = [
    (7, 3, 2, 1),
    (-7, 3, -3, 2),
    (7, -3, -2, 1),
    (-7, -3, 3, 2),
    (6, 3, 2, 0),
    (-6, 3, -2, 0),
    (0, 5, 0, 0),
    (1, 1, 1, 0),
]


@pytest.mark.parametrize("a,b,q,r", DIVMOD_CASES)
def test_euclidean_div_mod_pinned(a, b, q, r):
    assert euclidean_div_mod(a, b) == (q, r)


def test_euclidean_div_mod_contract_on_a_grid():
    for a in range(-40, 41):
        for b in list(range(-12, 0)) + list(range(1, 13)):
            q, r = euclidean_div_mod(a, b)
            assert a == q * b + r
            assert 0 <= r < abs(b)


def test_euclidean_div_mod_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        euclidean_div_mod(5, 0)


def test_check_divides(ring):
    assert check_divides(ring, DividesWitness(3, 12, 4))
    assert not check_divides(ring, DividesWitness(3, 12, 5))
    # "ab" * 3 == "ababab", 2.0 * 3.0 == 6 and True * True == 1: each product
    # holds, but no field of a witness over Z may be anything but an int
    for probe in (DividesWitness("ab", "ababab", 3), DividesWitness(2.0, 6, 3.0),
                  DividesWitness(True, 1, True), None, (2, 6, 3)):
        assert check_divides(ring, probe) is False, probe
    # over Z/(7) every field must be a residue
    z7 = residue_ring(ring, 7)
    two, six, three = map(z7.ops["from_int"], (2, 6, 3))
    assert check_divides(z7, DividesWitness(two, six, three))
    assert check_divides(z7, DividesWitness(2, 6, 3)) is False
    assert check_divides(z7, DividesWitness(two, 6, three)) is False
    # and every residue's value an int (bool is not): True * 6 == 6, but
    # Residue(7, True) is no element of Z/(7), nor are "x" and 1.0
    one = z7.ops["from_int"](1)
    good = DividesWitness(one, six, six)
    assert check_divides(z7, good)
    for value in ("x", 1.0, True):
        for name in good.__slots__:
            probe = replaced(good, **{name: Residue(7, value)})
            assert check_divides(z7, probe) is False, probe


@pytest.mark.parametrize("route", ["native", "generic"])
def test_a_residue_of_another_modulus_is_no_member(ring, route):
    # the ops read only .value and eq compares no Z/(7) residue with these
    # fields, so only the membership rule, which reads the modulus of the
    # ring's zero, can refuse a residue of Z/(5), or one with no modulus
    z7 = residue_ring(ring if route == "native" else without_roles(ring, "native_int"), 7)
    r7 = partial(make_residue, ring, 7)
    good = BezoutCertificate(*map(r7, (3, 0, 3, 1, 0, 1, 0)))
    assert verify_bezout(z7, good)
    for other in (Residue(5, 1), Residue(None, 1)):
        assert verify_bezout(z7, replaced(good, u=other)) is False, other
    one, six = r7(1), r7(6)
    assert check_divides(z7, DividesWitness(one, six, six))
    for other in (Residue(5, 1), Residue(None, 1)):
        assert check_divides(z7, DividesWitness(other, six, six)) is False, other
    assert check_divides(z7, DividesWitness(one, six, Residue(5, 6))) is False


# ================================================================
# extended gcd with Bezout certificates
# ================================================================


def test_extended_gcd_small_example(ring):
    cert = extended_gcd(ring, 12, 8)
    assert (cert.g, cert.u, cert.v) == (4, 1, -1)
    assert (cert.qa, cert.qb) == (3, 2)
    assert verify_bezout(ring, cert)


def test_extended_gcd_matches_math_gcd_on_grid(ring):
    for a in range(-30, 31):
        for b in range(-30, 31):
            cert = extended_gcd(ring, a, b)
            assert cert.g == math.gcd(a, b)
            assert verify_bezout(ring, cert)


def test_extended_gcd_zero_zero(ring):
    cert = extended_gcd(ring, 0, 0)
    assert cert.g == 0
    assert verify_bezout(ring, cert)


def test_extended_gcd_large_random_pairs(ring):
    rng = random.Random(77)
    for _ in range(200):
        a = rng.randint(-2**63, 2**63)
        b = rng.randint(-2**63, 2**63)
        cert = extended_gcd(ring, a, b)
        assert cert.g == math.gcd(a, b)
        assert cert.u * a + cert.v * b == cert.g
        assert verify_bezout(ring, cert)


def test_verify_bezout_rejects_forged_certificates(ring):
    good = extended_gcd(ring, 12, 8)
    assert not verify_bezout(ring, BezoutCertificate(12, 8, good.g, good.u + 1,
                                                     good.v, good.qa, good.qb))
    assert not verify_bezout(ring, BezoutCertificate(12, 8, 2, 1, -1, 6, 4))
    assert not verify_bezout(ring, BezoutCertificate(12, 8, good.g, good.u,
                                                     good.v, good.qa, good.qb + 3))


def test_verify_bezout_rejects_non_int_fields_over_native_int_rings(ring):
    # 0.5*2 + 0*4 = 1, 2 = 2.0*1 and 4 = 4.0*1 hold as floats, but gcd(2, 4) = 2
    assert not verify_bezout(ring, BezoutCertificate(2, 4, 1, 0.5, 0, 2.0, 4.0))
    good = extended_gcd(ring, 12, 8)
    for native in (ring, int_factorization_ring()):
        assert verify_bezout(native, good)
        for name in ("a", "b", "g", "u", "v", "qa", "qb"):
            value = getattr(good, name)
            for forged in (float(value), value + 0j, value == 1):
                assert not verify_bezout(native, replaced(good, **{name: forged}))
    # bool is not int, though True == 1 and False == 0
    assert not verify_bezout(ring, BezoutCertificate(True, False, True, True, 0, True, 0))


@pytest.mark.parametrize("route", ["native", "generic"])
def test_verify_bezout_refuses_what_is_not_a_certificate(ring, route):
    inst = ring if route == "native" else without_roles(ring, "native_int")
    good = extended_gcd(ring, 12, 8)
    assert verify_bezout(inst, good)
    fields = tuple(getattr(good, name) for name in good.__slots__)
    for probe in (None, fields, is_prime(7)):
        assert verify_bezout(inst, probe) is False, probe
    if route == "generic":
        # over Z/(7), built over the native ring and over this one: a plain int
        # where a Residue belongs, in every field, then in one at a time
        good7 = BezoutCertificate(*(make_residue(ring, 7, v) for v in (3, 0, 3, 1, 0, 1, 0)))
        for z7 in (residue_ring(ring, 7), residue_ring(inst, 7)):
            assert verify_bezout(z7, good7)
            for probe in [BezoutCertificate(1, 0, 1, 1, 0, 1, 0)] + [
                    replaced(good7, **{name: getattr(good7, name).value})
                    for name in good7.__slots__]:
                assert verify_bezout(z7, probe) is False, probe
            # a Residue whose value is not an int (bool is not), in each field
            for value in ("x", 1.0, True):
                for name in good7.__slots__:
                    probe = replaced(good7, **{name: Residue(7, value)})
                    assert verify_bezout(z7, probe) is False, probe


def test_verify_bezout_verdicts_match_the_oracle_through_the_rings_own_mul(ring):
    for a, b in _egcd_pairs()[::7]:
        good = extended_gcd(ring, a, b)
        assert verify_bezout(ring, good) is True, good
        # each field one off: refused unless the three equations still hold
        for name in good.__slots__:
            for step in (1, -1):
                cert = replaced(good, **{name: getattr(good, name) + step})
                fields = (getattr(cert, field) for field in cert.__slots__)
                assert verify_bezout(ring, cert) is nt_oracles.bezout_holds(*fields), cert
        # bool is not int, though True == 1 and False == 0: each field that is
        # 0 or 1 as a bool, then all of them at once
        small = [name for name in good.__slots__ if getattr(good, name) in (0, 1)]
        certs = [replaced(good, **{name: bool(getattr(good, name))}) for name in small]
        if small:
            certs.append(replaced(good, **{name: bool(getattr(good, name)) for name in small}))
        for cert in certs:
            assert verify_bezout(ring, cert) is False, cert
    assert verify_bezout(ring, BezoutCertificate(True, 0, True, True, 0, True, 0)) is False
    # one route for every ring: over Z too, with native_int kept, each of the
    # four products goes through int_ring()'s own mul
    native, native_calls = spied(ring, "mul")
    assert "native_int" in native.ops
    assert verify_bezout(native, extended_gcd(ring, 12, 8))
    assert native_calls["mul"] == 4


# ================================================================
# primality with witnesses
# ================================================================


def test_is_prime_verdicts():
    assert is_prime(2).verdict == "prime"
    assert is_prime(97).verdict == "prime"
    assert is_prime(-13).verdict == "prime"
    cert = is_prime(91)
    assert cert.verdict == "composite"
    assert cert.witness == DividesWitness(7, 91, 13)


def test_is_prime_rejects_units_and_zero():
    for n in (0, 1, -1):
        with pytest.raises(InvalidInputError):
            is_prime(n)


def test_is_prime_agrees_with_a_sieve():
    limit = 2000
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            for j in range(i * i, limit + 1, i):
                sieve[j] = False
    for n in range(2, limit + 1):
        assert (is_prime(n).verdict == "prime") == sieve[n]


def test_verify_primality_checks_witness_consistency():
    assert verify_primality(is_prime(97))
    assert verify_primality(is_prime(91))
    # tampered composite witness: quotient wrong
    bad = PrimalityCert(91, "composite", DividesWitness(7, 91, 12))
    assert not verify_primality(bad)
    # trivial divisor smuggled in
    bad2 = PrimalityCert(91, "composite", DividesWitness(1, 91, 91))
    assert not verify_primality(bad2)
    # claiming a composite is prime
    assert not verify_primality(PrimalityCert(91, "prime", None))


def test_verify_primality_refuses_what_is_not_its_record():
    assert verify_primality(is_prime(91)) and verify_primality(is_prime(M61))
    for probe in (None, "prime", (91, "composite", DividesWitness(7, 91, 13), None),
                  extended_gcd(int_ring(), 12, 8)):
        assert verify_primality(probe) is False, probe
    # a composite's witness must be a DividesWitness, not a look-alike
    look_alike = namedtuple("Witness", ("divisor", "dividend", "quotient"))
    for witness in (None, (7, 91, 13), look_alike(7, 91, 13),
                    BezoutCertificate(7, 91, 7, 1, 0, 1, 13)):
        assert verify_primality(PrimalityCert(91, "composite", witness)) is False, witness


def test_verify_primality_rejects_numbers_that_are_not_ints():
    # 1.75 * 4.0 == 7, so only the types keep the prime 7 from passing as composite
    assert not verify_primality(PrimalityCert(7, "composite", DividesWitness(1.75, 7, 4.0)))
    assert not verify_primality(PrimalityCert(91, "composite", DividesWitness(7.0, 91, 13)))
    assert not verify_primality(PrimalityCert(91, "composite", DividesWitness(7, 91, 13.0)))
    assert not verify_primality(PrimalityCert(91.0, "composite", DividesWitness(7, 91, 13)))
    assert not verify_primality(PrimalityCert(97.0, "prime"))
    assert not verify_primality(PrimalityCert(float(M61), "prime", pratt=is_prime(M61).pratt))


# ================================================================
# prime-split
# ================================================================


def test_prime_split_prefers_the_left_factor(ring):
    side, w = prime_split(ring, 5, 10, 5, DividesWitness(5, 50, 10))
    assert side == "left"
    assert w == DividesWitness(5, 10, 2)


def test_prime_split_right_side(ring):
    side, w = prime_split(ring, 5, 3, 10, DividesWitness(5, 30, 6))
    assert side == "right"
    assert w.dividend == 10
    assert check_divides(ring, w)


def test_prime_split_rejects_bogus_witness(ring):
    with pytest.raises(InvalidInputError):
        prime_split(ring, 5, 3, 7, DividesWitness(5, 21, 4))


def test_prime_split_exhaustive_small(ring):
    for p in (2, 3, 5, 7):
        for a in range(1, 16):
            for b in range(1, 16):
                if (a * b) % p:
                    continue
                side, w = prime_split(ring, p, a, b,
                                      DividesWitness(p, a * b, (a * b) // p))
                assert check_divides(ring, w)
                assert w.divisor == p
                assert w.dividend == (a if side == "left" else b)


# ================================================================
# residue rings and fields
# ================================================================


def test_make_residue_reduces_canonically(ring):
    assert make_residue(ring, 6, 9) == Residue(6, 3)
    assert make_residue(ring, 6, -1) == Residue(6, 5)
    assert str(make_residue(ring, 6, 3)) == "3 (mod 6)"


def test_residue_ring_addition_wraps(ring):
    zr = residue_ring(ring, 6)
    assert zr.kind is Kind.COMMUTATIVE_RING
    s = zr.ops["add"](make_residue(ring, 6, 4), make_residue(ring, 6, 5))
    assert s == Residue(6, 3)


def test_residue_ring_rejects_degenerate_moduli(ring):
    with pytest.raises(InvalidInputError):
        residue_ring(ring, 0)
    with pytest.raises(InvalidInputError):
        residue_ring(ring, 1)


def test_residue_ring_laws_hold_for_small_moduli(ring):
    for b in (2, 6, 12):
        assert check_laws(residue_ring(ring, b), seed=1, budget=120).ok


def test_residue_field_inverse_example(ring):
    f7 = residue_field(ring, 7, is_prime(7))
    assert f7.kind is Kind.FIELD
    inv = f7.ops["inv"](make_residue(ring, 7, 3))
    assert inv == Residue(7, 5)


def test_residue_field_all_inverses_mod_13(ring):
    f = residue_field(ring, 13, is_prime(13))
    mul, inv = f.ops["mul"], f.ops["inv"]
    one = f.ops["one"]()
    for x in range(1, 13):
        r = make_residue(ring, 13, x)
        assert mul(inv(r), r) == one


def test_residue_field_rejects_composite_modulus_with_witness(ring):
    with pytest.raises(CompositeModulusError) as exc:
        residue_field(ring, 6, is_prime(6))
    w = exc.value.cert.witness
    assert w.divisor == 2 and w.dividend == 6


def test_residue_field_rejects_mismatched_certificate(ring):
    with pytest.raises(InvalidInputError):
        residue_field(ring, 7, is_prime(11))
    forged = PrimalityCert(9, "prime", None)
    with pytest.raises(InvalidInputError):
        residue_field(ring, 9, forged)


def test_residue_field_inverse_of_zero_raises(ring):
    f7 = residue_field(ring, 7, is_prime(7))
    with pytest.raises(ZeroDivisionError):
        f7.ops["inv"](make_residue(ring, 7, 0))


def test_residue_values_carry_their_modulus(ring):
    zr6 = residue_ring(ring, 6)
    a = make_residue(ring, 6, 2)
    b = make_residue(ring, 7, 2)
    assert not zr6.base.eq(a, b).holds


def _generic_int_ring():
    """int_ring() without the role that picks native routes, with a spy on
    div_mod: residue rings built over it reduce through div_mod and invert
    through the generic extended_gcd loop."""
    return spied(without_roles(int_ring(), "native_int"), "div_mod")


def test_native_residue_ops_agree_with_the_generic_route(ring):
    generic, calls = _generic_int_ring()
    for b in list(range(2, 51)) + [-7, -12]:
        fast, slow = residue_ring(ring, b), residue_ring(generic, b)
        assert fast.base.enumeration == slow.base.enumeration
        assert fast.base.sample(5, 60) == slow.base.sample(5, 60)
        assert fast.ops["zero"]() == slow.ops["zero"]()
        assert fast.ops["one"]() == slow.ops["one"]()
        elems = fast.base.enumeration
        for x in elems:
            assert fast.ops["neg"](x) == slow.ops["neg"](x)
            assert fast.base.variants(x) == slow.base.variants(x)
            for y in elems:
                assert fast.ops["add"](x, y) == slow.ops["add"](x, y)
                assert fast.ops["mul"](x, y) == slow.ops["mul"](x, y)
                assert fast.base.eq(x, y).holds == slow.base.eq(x, y).holds
    assert calls["div_mod"] > 0


def test_native_residue_inverse_agrees_with_the_generic_route(ring):
    generic, calls = _generic_int_ring()
    for p in (p for p in range(2, 100) if is_prime(p).verdict == "prime"):
        fast = residue_field(ring, p, is_prime(p)).ops["inv"]
        slow = residue_field(generic, p, is_prime(p)).ops["inv"]
        calls.clear()
        for v in range(1, p):
            assert fast(Residue(p, v)) == slow(Residue(p, v))
        # the generic extended_gcd loop divides at least once per inverse
        assert calls["div_mod"] >= p - 1
        for inv in (fast, slow):
            with pytest.raises(ZeroDivisionError):
                inv(Residue(p, 0))
            with pytest.raises(InvalidInputError):
                inv(Residue(p, 2 * p))


# ================================================================
# interned residues: small Z/(m) hands out one shared object per residue
# ================================================================


def _op_results(zr):
    """Every way a residue ring hands out a residue, with its expected value."""
    m = abs(zr.ops["one"]().modulus)
    ops, xs = zr.ops, zr.base.sample(3, 40)
    out = [(ops["zero"](), 0), (ops["one"](), 1)]
    out += [(x, x.value) for x in xs + list(zr.base.enumeration)]
    out += [(ops["from_int"](v), v % m) for v in (-m - 3, -1, 0, 5, 3 * m + 2)]
    for x, y in zip(xs, xs[1:]):
        out += [(ops["add"](x, y), (x.value + y.value) % m),
                (ops["mul"](x, y), x.value * y.value % m),
                (ops["neg"](x), -x.value % m)]
    return out


@pytest.mark.parametrize("b", [2, 7, 97, 256, -7])
def test_small_residue_rings_hand_out_their_table_entries(ring, b):
    cert = is_prime(b)
    rings = [residue_ring(ring, b)]
    rings += [residue_field(ring, b, cert)] if cert.verdict == "prime" else []
    for zr in rings:
        table = [zr.ops["from_int"](v) for v in range(abs(b))]
        assert table == [Residue(b, v) for v in range(abs(b))]
        for r, v in _op_results(zr):
            assert r is table[v]
        if "inv" in zr.ops:
            assert all(zr.ops["inv"](x) is table[pow(x.value, -1, abs(b))]
                       for x in table[1:])


@pytest.mark.parametrize("b", [257, 9973, 2**61 - 1, -257])
def test_larger_residue_rings_build_fresh_residues(ring, b):
    zr = residue_ring(ring, b)
    for r, v in _op_results(zr):
        assert r == Residue(b, v)
    x, y = zr.base.sample(3, 2)
    for op, args in (("add", (x, y)), ("mul", (x, y)), ("neg", (x,)), ("from_int", (5,))):
        first, second = zr.ops[op](*args), zr.ops[op](*args)
        assert first == second and first is not second
    inv = residue_field(ring, b, is_prime(b)).ops["inv"]  # each b here is prime
    first, second = inv(x), inv(x)
    assert first == second == Residue(b, pow(x.value, -1, abs(b))) and first is not second


_PRIMES_TO_256 = [p for p in range(2, 257) if is_prime(p).verdict == "prime"]


@pytest.mark.parametrize("b", _PRIMES_TO_256 + [-p for p in _PRIMES_TO_256])
def test_small_fields_read_inverses_from_a_table(ring, b, monkeypatch):
    p = abs(b)
    field = residue_field(ring, b, is_prime(b))
    inv, from_int = field.ops["inv"], field.ops["from_int"]
    want = [from_int(pow(v, -1, p)) for v in range(1, p)]
    # built with the ring, so a canonical unit's inverse takes no pow call
    monkeypatch.setattr(euclid, "pow", None, raising=False)
    assert all(inv(from_int(v)) is w for v, w in zip(range(1, p), want))
    monkeypatch.undo()
    # every other value keeps the pow route, with its errors
    with pytest.raises(ZeroDivisionError):
        inv(Residue(b, 0))
    for v in (p, 2 * p):  # non-canonical zeros, p just past the table
        with pytest.raises(InvalidInputError, match=rf"^{v} shares a factor with the modulus {b}$"):
            inv(Residue(b, v))
    for v in (p + 1, -1, True):  # non-canonical values of units
        assert inv(Residue(b, v)) is from_int(pow(v, -1, p))


@pytest.mark.parametrize("b", [7, 256, 257])  # 256 has the last table, 257 none
def test_a_variant_is_eq_equal_to_its_input_and_never_the_input(ring, b):
    zr = residue_ring(ring, b)
    vary, eq, from_int = zr.base.variants, zr.base.eq, zr.ops["from_int"]
    canonical = [from_int(v) for v in range(b)]  # interned up to 256
    twins = [vary(x) for x in canonical]
    for x in (*canonical, *twins):
        v = vary(x)
        assert v == x and eq(v, x).holds and v is not x
    if b <= 256:  # the twin table: a twin's variant is the interned residue
        assert all(vary(t) is x for t, x in zip(twins, canonical))
    else:  # past it, a fresh Residue per call
        assert vary(canonical[3]) is not vary(canonical[3])
    # Residue(b, 2b) is no carrier element: its variant is the canonical residue
    # of its class, which the native eq, comparing values as given, tells apart
    odd = Residue(b, 2 * b)
    v = vary(odd)
    assert v is not odd and eq(v, from_int(0)).holds and not eq(v, odd).holds


@pytest.mark.parametrize("b", [7, 256, 257])
def test_native_residue_eq_tests_identity_then_value_and_modulus(ring, b):
    eq = residue_ring(ring, b).base.eq
    for x in (Residue(b, 3), Residue(b, 2 * b)):  # neither is interned
        assert eq(x, x) is YES
    nan = Residue(b, math.nan)  # nan != nan: YES only through the identity test
    assert eq(nan, nan) is YES and eq(nan, Residue(b, math.nan)) is NO
    assert eq(Residue(7, 1), Residue(5, 1)) is NO


def test_interned_residues_stay_frozen_with_value_equality(ring):
    r = residue_ring(ring, 7).ops["from_int"](3)
    with pytest.raises(AttributeError):
        r.value = 4
    assert r.value == 3
    assert r == Residue(7, 3) and r != Residue(7, 4) and r != Residue(-7, 3)
    assert hash(r) == hash(Residue(7, 3)) and repr(r) == "Residue(modulus=7, value=3)"
    assert str(r) == "3 (mod 7)"


def test_interned_and_generic_residue_rings_check_the_same_cases(ring):
    generic, calls = _generic_int_ring()
    primes = [p for p in range(2, 100) if is_prime(p).verdict == "prime"]
    pairs = [(residue_ring(ring, b), residue_ring(generic, b)) for b in range(2, 100)]
    pairs += [(residue_field(ring, p, is_prime(p)), residue_field(generic, p, is_prime(p)))
              for p in primes]
    for fast, slow in pairs:
        a = check_laws(fast, seed=3, budget=40)
        b = check_laws(slow, seed=3, budget=40)
        assert a.ok and b.ok and a.cases == b.cases, fast.name
    assert calls["div_mod"] > 0


def test_a_copy_of_int_ring_keeps_the_native_routes(ring):
    """The role, not the object, picks the route: a copy of int_ring() with
    counted ops, like a traced benchmark's, never calls them. native_int
    alone picks the closed-form egcd, with no egcd op in the table."""
    copy, calls = spied(ring, "div_mod", "gcd", "mul", "canon_unit")
    bare = replaced(copy, ops={role: fn for role, fn in copy.ops.items() if role != "egcd"})
    pairs = _signed([(0, 0), (12, 0), (12, 8), (40, 21), (2**64, 2**64 - 1)])
    assert [extended_gcd(bare, a, b) for a, b in pairs] == [
        euclid._int_egcd(a, b) for a, b in pairs]
    f7, z257 = residue_field(copy, 7, is_prime(7)), residue_ring(copy, 257)
    assert {"to_int", "from_int"} <= set(f7.ops) & set(z257.ops)
    assert f7.ops["from_int"](3) is f7.ops["from_int"](10)  # the interned table
    xs = f7.base.enumeration
    assert [f7.ops["inv"](x).value for x in xs[1:]] == [1, 4, 5, 2, 3, 6]
    assert [f7.ops["mul"](x, y).value for x in xs for y in xs] == [
        u * v % 7 for u in range(7) for v in range(7)]
    assert z257.ops["add"](z257.ops["from_int"](200), z257.ops["from_int"](100)).value == 43
    x, y = mk_fraction(copy, 6, -4), mk_fraction(copy, 5, 9)
    assert (add_optimized(copy, x, y), mul_fractions(copy, x, y)) == (
        Fraction(-17, 18), Fraction(-5, 6))
    assert calls == Counter()


def _signed(pairs):
    return [(s * x, t * y) for x, y in pairs for s in (1, -1) for t in (1, -1)]


def _egcd_pairs():
    """A grid, signed corner cases, and 1,000 seeded signed pairs of 1 to
    512 bits each; about one in five shares an odd factor of up to 128 bits."""
    grid = [(a, b) for a in range(-30, 31) for b in range(-30, 31)]
    signs = _signed(((0, 0), (0, 12), (12, 0), (12, 12), (12, 18), (36, 12), (1, 2**64),
                     (2**64, 2**64 - 1)))
    rng = random.Random(64)
    seeded = []
    for _ in range(1000):
        a, b = (rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 512)) for _ in range(2))
        if rng.random() < 0.2:
            f = rng.getrandbits(rng.randint(1, 128)) | 1
            a, b = a * f, b * f
        seeded.append((a, b))
    return grid + signs + seeded


def _assert_native_egcd_is_generic(ring, pairs):
    generic, calls = spied(without_roles(ring, "native_int"), "div_mod")
    for a, b in pairs:
        fast, slow = extended_gcd(ring, a, b), extended_gcd(generic, a, b)
        assert fast == slow, (a, b)
        assert verify_bezout(ring, fast)
    assert calls["div_mod"] > len(pairs)


def test_native_egcd_agrees_with_the_generic_route(ring):
    _assert_native_egcd_is_generic(ring, _egcd_pairs())


def test_int_egcd_boundary_classes(ring):
    """Each case of _int_egcd's closed form, in all four sign combinations,
    against the generic route; m = |b/g|, as in its docstring."""
    classes = {
        "b = 0": [(0, 0), (1, 0), (5, 0), (2**70, 0)],
        "a = 0": [(0, 1), (0, 7), (0, 2**70)],
        "m = 1": [(1, 1), (5, 1), (12, 4), (2**70, 2**35)],
        "m = 2": [(1, 2), (3, 2), (15, 10), (2**70 + 1, 2)],
        # a/g = 2 (mod m) for a or -a: the sign of b breaks the tie
        "odd m, a/g = 2": [(2, 3), (1, 3), (2, 7), (5, 7), (40, 21), (6, 21),
                           (2, 2**61 - 1)],
        "g > 1": [(12, 8), (36, 12), (6 * 7, 6 * 5), (3**40 * 7, 3**41 * 5),
                  (3**300 * 5, 3**300 * 7)],
    }
    for pairs in classes.values():
        _assert_native_egcd_is_generic(ring, _signed(pairs))
    ties = 0
    for a, b in _signed(classes["odd m, a/g = 2"]):
        cert = extended_gcd(ring, a, b)
        m = abs(cert.qb)
        if m > 1 and cert.qa % m == 2:
            assert cert.u == ((m + 1) // 2 if b < 0 else -(m - 1) // 2), (a, b)
            ties += 1
    assert ties == 2 * len(classes["odd m, a/g = 2"])
    rng, top = random.Random(512), 1 << 511
    big = [(rng.getrandbits(512) | top, rng.getrandbits(512) | top) for _ in range(20)]
    _assert_native_egcd_is_generic(ring, _signed(big))


def test_instances_with_native_roles_validate(ring):
    field = residue_field(ring, 7, is_prime(7))
    ufd = int_factorization_ring()
    assert {"to_int", "from_int", "native_int"} <= set(ring.ops) & set(ufd.ops)
    assert {"to_int", "from_int"} <= set(field.ops)
    # residues are not ints, so no residue ring claims native_int
    assert "native_int" not in field.ops and "native_int" not in residue_ring(ring, 12).ops
    for inst in (ring, ufd, residue_ring(ring, 12), residue_ring(ring, -7), field):
        validate_instance(inst)
    typo = StructureInstance(ring.kind, ring.base, {**ring.ops, "from_ints": int}, ring.name)
    with pytest.raises(StructuralError, match="from_ints"):
        validate_instance(typo)


def test_int_ring_is_lawful_and_euclidean(ring):
    assert ring.kind is Kind.EUCLIDEAN_RING
    assert check_laws(ring, seed=2, budget=150).ok


# ================================================================
# the Miller-Rabin / Pollard rho route and Pratt certificates
# ================================================================

M61 = 2**61 - 1


def test_is_prime_differential_below_two_hundred_thousand():
    flags = nt_oracles.sieve(200_000)
    for n in range(2, 200_000):
        cert = is_prime(n)
        verdict, divisor = nt_oracles.trial_is_prime(n)
        assert cert.verdict == verdict == ("prime" if flags[n] else "composite")
        if divisor is None:
            assert cert.witness is None and cert.pratt is None
        else:
            assert cert.witness == DividesWitness(divisor, n, n // divisor)
        assert verify_primality(cert)


def test_is_prime_across_the_trial_bound():
    lo, hi = TRIAL_BOUND - 3000, TRIAL_BOUND + 30_000
    flags = nt_oracles.sieve(hi)
    for n in range(lo, hi):
        cert = is_prime(n)
        assert cert.verdict == ("prime" if flags[n] else "composite")
        assert (cert.pratt is not None) == (flags[n] and n >= TRIAL_BOUND)
        if n < TRIAL_BOUND and not flags[n]:
            assert cert.witness.divisor == nt_oracles.trial_is_prime(n)[1]
        assert verify_primality(cert)


def test_seeded_64_bit_values_against_an_independent_miller_rabin():
    rng = random.Random(2024)
    values = [rng.getrandbits(64) | 1 for _ in range(300)]
    values += [nt_oracles.next_prime(rng.getrandbits(64)) for _ in range(60)]
    values += [nt_oracles.next_prime(rng.getrandbits(32))
               * nt_oracles.next_prime(rng.getrandbits(32)) for _ in range(10)]
    for n in values:
        cert = is_prime(n)
        assert cert.verdict == ("prime" if nt_oracles.strong_probable_prime(n)
                                else "composite")
        assert verify_primality(cert)
        if cert.verdict == "composite":
            w = cert.witness
            assert 1 < w.divisor < n and w.divisor * w.quotient == n


def test_sixty_one_bit_prime_is_fast_and_certified():
    t = time.perf_counter()
    cert = is_prime(M61)
    assert time.perf_counter() - t < 0.5
    assert cert.verdict == "prime" and cert.witness is None
    assert isinstance(cert.pratt, PrattCertificate)
    assert verify_primality(cert)
    assert verify_primality(is_prime(-M61))


def test_verify_primality_never_trial_divides_above_the_bound(monkeypatch):
    # the kernel's small-prime check runs on the Pratt tree's primes below the bound
    cert = is_prime(M61)
    calls = []
    real = kernel._miller_rabin
    monkeypatch.setattr(kernel, "_miller_rabin",
                        lambda m, bases: calls.append(m) or real(m, bases))
    assert verify_primality(cert)
    assert calls and max(calls) < TRIAL_BOUND


def test_verify_primality_shares_no_trial_division_with_is_prime(monkeypatch):
    # 1009 * 1013: with the producer's trial division blind to it, is_prime
    # calls it prime, and the verifier, which does not trial-divide, refuses
    n = 1009 * 1013
    real = primes._least_small_factor
    monkeypatch.setattr(primes, "_least_small_factor",
                        lambda m: None if m == n else real(m))
    assert is_prime(n) == PrimalityCert(n, "prime")
    assert verify_primality(PrimalityCert(n, "prime")) is False


def _replace_factor(pratt, i, entry):
    factors = list(pratt.factors)
    if entry is None:
        del factors[i]
    else:
        factors[i] = entry
    return PrattCertificate(pratt.base, tuple(factors))


def _prime_cert(p, pratt):
    return PrimalityCert(p, "prime", pratt=pratt)


def test_verify_primality_rejects_forged_pratt_certificates():
    good = is_prime(M61).pratt
    assert verify_primality(_prime_cert(M61, good))
    # the factors may come as a list too
    assert verify_primality(_prime_cert(M61, PrattCertificate(good.base, list(good.factors))))
    # a base of too small an order: a square has order dividing (p-1)/2
    square = PrattCertificate(good.base ** 2 % M61, good.factors)
    assert not verify_primality(_prime_cert(M61, square))
    assert not verify_primality(_prime_cert(M61, PrattCertificate(1, good.factors)))
    # prime powers that do not multiply to p-1
    q, e, c = good.factors[0]
    assert not verify_primality(_prime_cert(M61, _replace_factor(good, 0,
                                                                 FactorEntry(q, e + 1, c))))
    # an omitted prime of p-1
    assert not verify_primality(_prime_cert(M61, _replace_factor(good, -1, None)))
    # no certificate, a witness on a prime, a certificate on a composite verdict
    assert not verify_primality(PrimalityCert(M61, "prime"))
    assert not verify_primality(PrimalityCert(M61, "prime", DividesWitness(1, M61, M61),
                                              good))
    composite = is_prime(M61 + 2)
    assert not verify_primality(PrimalityCert(M61 + 2, "composite", composite.witness,
                                              good))


def test_verify_primality_rejects_pratt_fields_that_are_not_ints():
    good = is_prime(M61).pratt
    q, e, c = good.factors[0]
    for factor in (FactorEntry(float(q), e, c), FactorEntry(q, float(e), c)):
        assert not verify_primality(_prime_cert(M61, _replace_factor(good, 0, factor)))
    floated = PrattCertificate(float(good.base), good.factors)
    assert not verify_primality(_prime_cert(M61, floated))


def test_verify_primality_rejects_a_composite_factor_of_p_minus_one():
    good = is_prime(M61).pratt
    # 151 * 331 * 1321 is a composite above the bound; give it a forged
    # sub-certificate built from the true factorization of q - 1
    q = 151 * 331 * 1321
    rest = tuple(t for t in good.factors if t[0] not in (151, 331, 1321))
    sub_factors = tuple(FactorEntry(r, k, is_prime(r))
                        for r, k in nt_oracles.trial_factor(q - 1))
    for base in (2, 3, 5, 7):
        forged_q = _prime_cert(q, PrattCertificate(base, sub_factors))
        assert not verify_primality(forged_q)
        forged = PrattCertificate(good.base, rest + (FactorEntry(q, 1, forged_q),))
        assert not verify_primality(_prime_cert(M61, forged))
    # a true composite certificate for q in the slot of a prime
    forged = PrattCertificate(good.base, rest + (FactorEntry(q, 1, is_prime(q)),))
    assert not verify_primality(_prime_cert(M61, forged))
    # 3^2 * 5^2 = 15^2, with 15 claimed prime below the bound
    swapped = tuple(t for t in good.factors if t[0] not in (3, 5)) + (
        FactorEntry(15, 2, PrimalityCert(15, "prime")),)
    assert not verify_primality(_prime_cert(M61, PrattCertificate(good.base, swapped)))


def _nested_shape(shape):
    """A prime verdict for M61 with one nested field of another type."""
    good = is_prime(M61).pratt
    q, e, _ = good.factors[0]
    if shape == "pratt-is-an-int":
        return _prime_cert(M61, good.base)
    if shape == "factors-none":
        return _prime_cert(M61, PrattCertificate(good.base, None))
    if shape == "entry-cert-none":
        return _prime_cert(M61, _replace_factor(good, 0, FactorEntry(q, e, None)))
    assert shape == "entries-plain-triples"  # each a tuple, not a FactorEntry
    return _prime_cert(M61, PrattCertificate(good.base, tuple(map(tuple, good.factors))))


@pytest.mark.parametrize("shape", ["pratt-is-an-int", "factors-none", "entry-cert-none",
                                   "entries-plain-triples"])
def test_verify_primality_refuses_nested_fields_of_another_type(shape):
    assert verify_primality(_nested_shape(shape)) is False


def test_pratt_certificates_on_carmichael_numbers_are_rejected():
    def pratt_for(n, base):
        factors = tuple(FactorEntry(q, k, is_prime(q))
                        for q, k in nt_oracles.trial_factor(n - 1))
        return PrattCertificate(base, factors)
    # 561 = 3 * 11 * 17 sits below the bound; 56052361 = 211 * 421 * 631
    # (Chernick's form) sits above it. Neither has an element of order n - 1.
    assert not verify_primality(_prime_cert(561, pratt_for(561, 2)))
    n = 211 * 421 * 631
    assert n > TRIAL_BOUND
    for base in range(2, 200):
        assert not verify_primality(_prime_cert(n, pratt_for(n, base)))


def _semiprime_of_large_primes(bits):
    rng = random.Random(bits)
    return (nt_oracles.next_prime(rng.getrandbits(bits) | 1 << (bits - 1))
            * nt_oracles.next_prime(rng.getrandbits(bits) | 1 << (bits - 1)))


def test_is_prime_out_of_fuel_raises_instead_of_guessing(monkeypatch):
    n = _semiprime_of_large_primes(32)
    assert is_prime(n).verdict == "composite"
    monkeypatch.setattr(primes, "RHO_FUEL", 256)
    with pytest.raises(InvalidInputError, match="fuel"):
        is_prime(n)


def test_prime_whose_p_minus_one_cannot_be_split_raises(monkeypatch):
    # p - 1 = 2 * q * r with q, r prime and beyond the small primes
    rng = random.Random(9)
    while True:
        q = nt_oracles.next_prime(rng.getrandbits(28) | 1 << 27)
        r = nt_oracles.next_prime(q + rng.getrandbits(20))
        p = 2 * q * r + 1
        if nt_oracles.strong_probable_prime(p):
            break
    assert verify_primality(is_prime(p))
    monkeypatch.setattr(primes, "RHO_FUEL", 0)
    with pytest.raises(InvalidInputError, match="fuel"):
        is_prime(p)
