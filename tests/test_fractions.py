"""Canonical fractions over the integers and the two addition routes."""

import fractions as stdlib_fractions
import random

import pytest
from hypothesis import given, strategies as st

from roles import spied, without_roles
from certalg.euclid import int_ring
from certalg.fractions import (Fraction, add_naive, add_optimized,
                               build_fraction_field, fraction_field, inverse,
                               is_canonical, mk_fraction, mul_fractions,
                               neg_fraction)
from certalg.laws import check_laws
from certalg.structures import Kind

RING = int_ring()


def as_stdlib(x: Fraction) -> stdlib_fractions.Fraction:
    return stdlib_fractions.Fraction(x.num, x.den)


nonzero = st.integers(min_value=-10**6, max_value=10**6).filter(bool)
nums = st.integers(min_value=-10**6, max_value=10**6)


def test_mk_fraction_reduces_and_fixes_sign():
    assert mk_fraction(RING, 2, 4) == Fraction(1, 2)
    assert mk_fraction(RING, 4, -6) == Fraction(-2, 3)
    assert mk_fraction(RING, -3, -9) == Fraction(1, 3)
    assert mk_fraction(RING, 0, 17) == Fraction(0, 1)
    assert mk_fraction(RING, 7, 1) == Fraction(7, 1)


def test_mk_fraction_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        mk_fraction(RING, 1, 0)


def test_is_canonical():
    assert is_canonical(RING, Fraction(1, 2))
    assert is_canonical(RING, Fraction(0, 1))
    assert not is_canonical(RING, Fraction(2, 4))
    assert not is_canonical(RING, Fraction(1, -2))
    assert not is_canonical(RING, Fraction(0, 3))


def test_add_small_example():
    s = add_optimized(RING, mk_fraction(RING, 1, 6), mk_fraction(RING, 1, 4))
    assert s == Fraction(5, 12)
    assert add_naive(RING, mk_fraction(RING, 1, 6), mk_fraction(RING, 1, 4)) == s


@given(nums, nonzero, nums, nonzero)
def test_add_routes_agree_and_stay_canonical(n1, d1, n2, d2):
    x = mk_fraction(RING, n1, d1)
    y = mk_fraction(RING, n2, d2)
    fast = add_optimized(RING, x, y)
    slow = add_naive(RING, x, y)
    assert fast == slow
    assert is_canonical(RING, fast)
    assert as_stdlib(fast) == as_stdlib(x) + as_stdlib(y)


@given(nums, nonzero, nums, nonzero)
def test_mul_matches_stdlib(n1, d1, n2, d2):
    x = mk_fraction(RING, n1, d1)
    y = mk_fraction(RING, n2, d2)
    p = mul_fractions(RING, x, y)
    assert is_canonical(RING, p)
    assert as_stdlib(p) == as_stdlib(x) * as_stdlib(y)


def test_neg_and_inverse():
    x = mk_fraction(RING, 3, -7)
    assert neg_fraction(RING, x) == Fraction(3, 7)
    assert inverse(RING, x) == Fraction(-7, 3)
    assert inverse(RING, mk_fraction(RING, 2, 5)) == Fraction(5, 2)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        inverse(RING, Fraction(0, 1))


def test_str_hides_unit_denominator():
    assert str(Fraction(5, 12)) == "5/12"
    assert str(Fraction(-3, 1)) == "-3"
    assert str(Fraction(0, 1)) == "0"


def test_fraction_field_is_a_lawful_field():
    f = fraction_field()
    assert f.kind is Kind.FIELD
    assert check_laws(f, seed=1, budget=150).ok


def test_fraction_field_is_cached():
    assert fraction_field() is fraction_field()


def test_fraction_field_enumeration_is_pinned():
    """Every n/d with -3 <= n <= 3 and 1 <= d <= 3, in first-seen order: the
    law sweeps read this order, and CASE_DIGESTS sees only its first four."""
    enum = fraction_field().base.enumeration
    assert type(enum) is tuple
    assert enum == tuple(Fraction(n, d) for n, d in [
        (-3, 1), (-3, 2), (-1, 1), (-2, 1), (-2, 3), (-1, 2), (-1, 3), (0, 1),
        (1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)])
    assert all(type(f.num) is int and type(f.den) is int for f in enum)


def test_build_fraction_field_equality_ignores_representation():
    f = build_fraction_field(RING)
    assert f.base.eq(Fraction(1, 2), Fraction(1, 2)).holds
    assert not f.base.eq(Fraction(1, 2), Fraction(1, 3)).holds


# ================================================================
# the native route over int_ring() against the generic route
# ================================================================


def _outcome(fn, *args):
    """The result's fields and their types, or the type of the exception."""
    try:
        r = fn(*args)
    except Exception as e:  # the two routes must raise the same type
        return type(e)
    if isinstance(r, Fraction):
        return (r.num, type(r.num), r.den, type(r.den))
    return r


def _edge_ints(rng, bits):
    x = rng.getrandbits(bits) or 1
    return [0, 1, -1, x, -x, 2 * x, -3 * x, rng.getrandbits(bits), -rng.getrandbits(bits)]


def _raw_fractions(rng):
    """Seeded Fraction records straight from their fields: zero, +-1, negative
    and zero denominators, unreduced, at 1 to 256 bits."""
    out = []
    for bits in (1, 2, 3, 8, 16, 31, 64, 65, 128, 256):
        ints = _edge_ints(rng, bits)
        out += [Fraction(n, d) for n in ints for d in ints]
        k = rng.getrandbits(bits) + 2
        out += [Fraction(n * k, d * k) for n, d in zip(ints, reversed(ints))]
    return out


def test_int_route_matches_the_generic_route_field_by_field():
    # int_ring() without its native_int role: the fraction functions take
    # the generic route over it, the oracle, and the spy shows they do
    generic, calls = spied(without_roles(RING, "native_int"), "gcd", "div_mod", "canon_unit")
    rng = random.Random(71)
    xs = _raw_fractions(rng)
    for x in xs:
        assert (_outcome(mk_fraction, RING, x.num, x.den)
                == _outcome(mk_fraction, generic, x.num, x.den))
        for fn in (neg_fraction, inverse, is_canonical):
            assert _outcome(fn, RING, x) == _outcome(fn, generic, x)
    for _ in range(4000):
        x, y = rng.choice(xs), rng.choice(xs)
        for fn in (add_optimized, mul_fractions):
            assert _outcome(fn, RING, x, y) == _outcome(fn, generic, x, y)
    assert min(calls["gcd"], calls["div_mod"], calls["canon_unit"]) > 4000


def test_twelve_step_chains_match_stdlib():
    rng = random.Random(72)
    for bits in (1, 8, 64, 256):
        for _ in range(150):
            def draw():
                return mk_fraction(RING, rng.choice((1, -1)) * rng.getrandbits(bits),
                                   rng.getrandbits(bits) or 1)
            acc = draw()
            want = as_stdlib(acc)
            for _ in range(12):
                op = rng.choice(("add", "add", "mul", "mul", "neg", "inv"))
                if op == "inv" and want == 0:
                    op = "neg"
                if op == "add":
                    arg = draw()
                    acc, want = add_optimized(RING, acc, arg), want + as_stdlib(arg)
                elif op == "mul":
                    arg = draw()
                    acc, want = mul_fractions(RING, acc, arg), want * as_stdlib(arg)
                elif op == "neg":
                    acc, want = neg_fraction(RING, acc), -want
                else:
                    acc, want = inverse(RING, acc), 1 / want
                assert (acc.num, acc.den) == (want.numerator, want.denominator)
                assert is_canonical(RING, acc)
