"""Natural/integer carriers, binary coding, and generic powering."""

import random

import pytest
from hypothesis import given, strategies as st

from roles import spied, without_roles
from certalg.errors import InvalidInputError, StructuralError
from certalg.numbers import (bin_add_monoid, bin_suc, bin_to_str, from_bin,
                             int_add_group, is_canonical_bin, monus,
                             nat_add_monoid, nat_monus_semigroup,
                             nat_mul_monoid, pos_nat_mul_monoid, power,
                             power_instrumented, to_bin)
from certalg.laws import check_laws
from certalg.structures import Kind


def test_monus_truncates_at_zero():
    assert monus(5, 3) == 2
    assert monus(3, 5) == 0
    assert monus(0, 0) == 0
    assert monus(7, 7) == 0


@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=10**6))
def test_monus_is_max_of_difference_and_zero(a, b):
    assert monus(a, b) == max(a - b, 0)


# ----------------------------------------------------------------
# binary coding: least-significant-bit-first lists, no trailing zeros


def test_to_bin_known_values():
    assert to_bin(0) == []
    assert to_bin(1) == [1]
    assert to_bin(2) == [0, 1]
    assert to_bin(6) == [0, 1, 1]
    assert to_bin(10) == [0, 1, 0, 1]


def test_to_bin_rejects_negatives():
    with pytest.raises(InvalidInputError):
        to_bin(-1)


def test_from_bin_requires_canonical_form():
    assert from_bin([0, 1, 1]) == 6
    with pytest.raises(InvalidInputError):
        from_bin([1, 0])  # trailing zero
    with pytest.raises(InvalidInputError):
        from_bin([2])


def test_is_canonical_bin():
    assert is_canonical_bin([])
    assert is_canonical_bin([1])
    assert is_canonical_bin([0, 1])
    assert not is_canonical_bin([0])
    assert not is_canonical_bin([1, 1, 0])


@given(st.integers(min_value=0, max_value=2**80))
def test_bin_round_trip(n):
    bits = to_bin(n)
    assert is_canonical_bin(bits)
    assert from_bin(bits) == n


def _bits_one_at_a_time(n):
    """The per-bit coding the library used to run, as the oracle."""
    bits = []
    while n:
        bits.append(n & 1)
        n >>= 1
    return bits


def test_bin_coding_matches_the_per_bit_oracle():
    rng = random.Random(12)
    for n in list(range(1100)) + [rng.getrandbits(rng.randint(1, 20000)) for _ in range(200)]:
        bits = _bits_one_at_a_time(n)
        assert to_bin(n) == bits and all(type(b) is int for b in to_bin(n))
        assert from_bin(bits) == n and is_canonical_bin(bits)
    # the same verdicts and errors off the canonical form
    for bad in ([0], [1, 0], [2], [-1, 1], [[1]], [1, [1]], [None], ["1"]):
        assert not is_canonical_bin(bad)
        with pytest.raises(InvalidInputError):
            from_bin(bad)
    assert is_canonical_bin((0, 1)) and from_bin((0, 1)) == 2
    with pytest.raises(TypeError):
        is_canonical_bin(5)
    with pytest.raises(InvalidInputError):
        to_bin(-(2**70))


def test_a_float_is_no_bit():
    # 1.0 == 1 and hashes alike, but bytes() and int() take no float
    for bits in ([1.0], [0, 1.0], [0.0, 1], (1.0,)):
        assert not is_canonical_bin(bits)
        with pytest.raises(InvalidInputError):
            from_bin(bits)
    assert is_canonical_bin([True]) and from_bin([True]) == 1
    assert is_canonical_bin([False, True]) and from_bin([False, True]) == 2


def test_from_bin_errors_name_the_input():
    for bad in ([2], [1, 0], [-1], [256], ["1"], [[1]]):
        with pytest.raises(InvalidInputError) as err:
            from_bin(bad)
        assert str(err.value) == f"non-canonical bit list {bad!r}"


def test_from_bin_takes_lists_tuples_and_bytes_alike():
    rng = random.Random(13)
    for n in [0, 1, 2, 5] + [rng.getrandbits(rng.randint(1, 3000)) for _ in range(50)]:
        bits = to_bin(n)
        assert from_bin(bits) == from_bin(tuple(bits)) == from_bin(bytes(bits)) == n


def _from_bin_oracle(bits):
    if not is_canonical_bin(bits):
        return InvalidInputError
    return sum(int(b) << i for i, b in enumerate(bits))


def test_from_bin_agrees_with_is_canonical_bin():
    rng = random.Random(14)
    alphabet = (0, 1, 0, 1, True, False, 2, -1, 255, 256, 1.0, 0.0, "1", None)
    for _ in range(3000):
        bits = [rng.choice(alphabet) for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.5:
            bits.append(1)
        try:
            got = from_bin(bits)
        except InvalidInputError:
            got = InvalidInputError
        assert got == _from_bin_oracle(bits), bits


@given(st.integers(min_value=0, max_value=2**80))
def test_bin_suc_is_the_successor_homomorphism(n):
    assert bin_suc(to_bin(n)) == to_bin(n + 1)


def test_bin_to_str_most_significant_first():
    assert bin_to_str(to_bin(6)) == "0b110"
    assert bin_to_str(to_bin(0)) == "0b0"
    assert bin_to_str(to_bin(1)) == "0b1"


def test_bin_addition_through_the_monoid():
    m = bin_add_monoid()
    s = m.ops["op"](to_bin(6), to_bin(7))
    assert from_bin(s) == 13
    assert m.ops["identity"]() == []


# ----------------------------------------------------------------
# generic binary powering


def test_power_matches_builtin_pow():
    m = nat_mul_monoid()
    for n in range(0, 65):
        assert power(m, 3, n) == 3**n


def test_power_over_additive_group_is_multiplication():
    g = int_add_group()
    assert power(g, -7, 13) == -91
    assert power(g, 5, 0) == 0


def test_power_squaring_count_is_floor_log2():
    m = nat_mul_monoid()
    for n in range(1, 65):
        _, squarings, _ = power_instrumented(m, 2, n)
        assert squarings == n.bit_length() - 1


def test_power_zero_exponent_uses_identity():
    result, squarings, mults = power_instrumented(nat_mul_monoid(), 9, 0)
    assert result == 1
    assert squarings == 0 and mults == 0


def test_power_rejects_negative_exponent():
    with pytest.raises(InvalidInputError):
        power(nat_mul_monoid(), 2, -1)


def test_power_requires_monoid_shape():
    semigroup = nat_monus_semigroup()
    with pytest.raises(StructuralError):
        power(semigroup, 2, 3)


# ----------------------------------------------------------------
# bin-add's power role against the op route


def _bin_power_cases():
    grid = [(b, n) for b in range(65) for n in range(130)]
    rng = random.Random(200)
    return grid + [(rng.getrandbits(200), rng.getrandbits(64)) for _ in range(300)]


def test_bin_add_power_role_agrees_with_the_op_route():
    shipped = bin_add_monoid()
    generic, calls = spied(without_roles(shipped, "power"), "op")
    for b, n in _bin_power_cases():
        fast = power_instrumented(shipped, to_bin(b), n)
        assert fast == power_instrumented(generic, to_bin(b), n), (b, n)
        assert fast[0] == to_bin(b * n) and fast[1] == max(n.bit_length() - 1, 0)
    assert calls["op"] > len(_bin_power_cases())


def test_only_the_role_less_copy_goes_through_op():
    generic, calls = spied(without_roles(bin_add_monoid(), "power"), "op")
    _, squarings, mults = power_instrumented(generic, to_bin(5), 1000)
    assert calls["op"] == squarings + mults == 9 + 6
    copy, calls = spied(bin_add_monoid(), "op")
    assert power(copy, to_bin(5), 1000) == to_bin(5000)
    assert calls["op"] == 0


@pytest.mark.parametrize("bits", [[0], [1, 0], [2], [1, 1.0], "1"])
def test_bin_add_power_refuses_a_non_canonical_base_at_every_exponent(bits):
    for n in (0, 1, 2, 3, 2**64 + 1):
        with pytest.raises(InvalidInputError, match="non-canonical"):
            power(bin_add_monoid(), bits, n)


# ----------------------------------------------------------------
# shipped instances


@pytest.mark.parametrize("build,kind", [
    (nat_add_monoid, Kind.COMMUTATIVE_MONOID),
    (nat_mul_monoid, Kind.COMMUTATIVE_MONOID),
    (pos_nat_mul_monoid, Kind.CC_MONOID),
    (int_add_group, Kind.COMMUTATIVE_GROUP),
    (bin_add_monoid, Kind.COMMUTATIVE_MONOID),
])
def test_shipped_instances_are_lawful(build, kind):
    inst = build()
    assert inst.kind is kind
    assert check_laws(inst, seed=1, budget=120).ok


def test_monus_semigroup_is_an_intentional_negative_control():
    report = check_laws(nat_monus_semigroup(), seed=1, budget=120, sweep=6)
    assert not report.ok


def test_cached_constructors_return_the_same_object():
    assert nat_add_monoid() is nat_add_monoid()
    assert int_add_group() is int_add_group()
