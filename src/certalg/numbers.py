"""Arithmetic carriers: naturals, integers, and canonical binary coding.

Bin values are lists of bits, least significant first, with no trailing
zeros; the empty list is zero. A bit is an integer 0 or 1 (bool included;
1.0 equals 1 but is no bit). power() raises an element of any monoid
instance to a natural power by square-and-multiply over the exponent's bit
list; a monoid with a power role, such as bin-add, does that itself.
The int stream, _mixed_int, draws a whole sample in one loop; the naturals,
bin and the residue rings of euclid map its list.
"""

from __future__ import annotations

import random
import sys
from functools import lru_cache
from operator import index

from .errors import InvalidInputError, ParseError, StructuralError
from .kernel import NO, YES
from .structures import DSet, Kind, StructureInstance

# the most digits int <-> str converts; 0 (no limit) before Python 3.10.7
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _literal(digits: str, pos: int) -> int:
    limit = _digit_limit()
    if 0 < limit < len(digits):
        raise ParseError(f"integer literal longer than {limit} digits", pos)
    return int(digits)


def monus(a: int, b: int) -> int:
    """Truncated subtraction on naturals: max(a - b, 0)."""
    return a - b if a >= b else 0


# ---------------------------------------------------------------------------
# binary coding


# bit lists and bit strings convert through bytes: 0/1 <-> "0"/"1"
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_TO_BITS = bytes.maketrans(b"01", b"\0\1")


def is_canonical_bin(bits) -> bool:
    digits = map(index, bits)  # a bits that is not iterable raises TypeError
    try:
        digits_ok = set(digits) <= {0, 1}
    except TypeError:  # an element that is no integer, such as 1.0, "1" or [1]
        digits_ok = False
    return digits_ok and (not bits or bits[-1] == 1)


def to_bin(n: int) -> list:
    if n < 0:
        raise InvalidInputError("to_bin takes a natural number")
    return list(bin(n)[:1:-1].encode().translate(_TO_BITS)) if n else []


def from_bin(bits) -> int:
    try:
        # bytes() takes exactly the integers in 0..255, as index() sees them
        raw = bytes(bits) if type(bits) is list else None
    except (TypeError, ValueError):
        raw = None
    if raw is None or raw.translate(None, b"\0\1") or raw.endswith(b"\0"):
        # not a canonical 0/1 list: tuples, bytes and every error go this way
        if not is_canonical_bin(bits):
            raise InvalidInputError(f"non-canonical bit list {bits!r}")
        raw = bytes(bits)
    return int(raw[::-1].translate(_TO_DIGITS) or b"0", 2)


def bin_suc(bits) -> list:
    """Successor directly on the bit list: flip trailing 1s, set the first 0."""
    if not is_canonical_bin(bits):
        raise InvalidInputError(f"non-canonical bit list {bits!r}")
    out = list(bits)
    i = 0
    while i < len(out) and out[i] == 1:
        out[i] = 0
        i += 1
    if i == len(out):
        out.append(1)
    else:
        out[i] = 1
    return out


def bin_to_str(bits) -> str:
    """Most-significant-first text form, e.g. [0,1,1] -> '0b110'."""
    if not bits:
        return "0b0"
    return "0b" + "".join(str(b) for b in reversed(bits))


# ---------------------------------------------------------------------------
# powering in a monoid


def power(monoid: StructureInstance, x, n: int):
    """x raised to the natural n using the binary coding of the exponent."""
    result, _, _ = power_instrumented(monoid, x, n)
    return result


def power_instrumented(monoid: StructureInstance, x, n: int):
    """Like power, also returning (squarings, multiplications-into-result).

    Squarings happen once per bit below the highest set bit, so the count
    is floor(log2 n) for n >= 1. A monoid with a power role returns the
    same triple itself (bin-add on plain ints).
    """
    if "op" not in monoid.ops or "identity" not in monoid.ops:
        raise StructuralError("power needs a monoid-shaped instance (op, identity)")
    if n < 0:
        raise InvalidInputError("exponent must be a natural number")
    if "power" in monoid.ops:
        return monoid.ops["power"](x, n)
    op = monoid.ops["op"]
    acc = monoid.ops["identity"]()
    bits = to_bin(n)
    squarings = 0
    multiplications = 0
    base = x
    last = len(bits) - 1
    for i, bit in enumerate(bits):
        if bit:
            acc = op(acc, base)
            multiplications += 1
        if i < last:
            base = op(base, base)
            squarings += 1
    return acc, squarings, multiplications


# ---------------------------------------------------------------------------
# carriers


def _value_eq(a, b):
    return YES if a == b else NO


def _mixed_int(seed, count) -> list:
    """The int stream: count draws from random.Random(seed), each small (60%),
    medium (30%) or 64-bit (10%), with below()'s getrandbits words: 6, 15 and
    65 bits wide, redrawn until below 41, 20,001 and 2^64."""
    rng = random.Random(seed)
    rand, bits = rng.random, rng.getrandbits
    out = []
    append = out.append
    for _ in range(count):
        r = rand()
        if r < 0.6:
            v = bits(6)
            while v >= 41:
                v = bits(6)
            append(v - 20)
        elif r < 0.9:
            v = bits(15)
            while v > 20000:
                v = bits(15)
            append(v - 10**4)
        else:
            v = bits(65)
            while v >> 64:
                v = bits(65)
            append(v - 2**63)
    return out


@lru_cache(maxsize=None)
def int_dset() -> DSet:
    enum = (0,) + tuple(v for k in range(1, 17) for v in (k, -k))
    return DSet("int", _value_eq, _mixed_int, enumeration=enum)


@lru_cache(maxsize=None)
def nat_dset() -> DSet:
    def sample(seed, count):
        return list(map(abs, _mixed_int(seed, count)))
    return DSet("nat", _value_eq, sample, enumeration=tuple(range(33)))


@lru_cache(maxsize=None)
def pos_nat_dset() -> DSet:
    def sample(seed, count):
        return list(map((1).__add__, map(abs, _mixed_int(seed, count))))
    return DSet("nat>=1", _value_eq, sample, enumeration=tuple(range(1, 34)))


@lru_cache(maxsize=None)
def bin_dset() -> DSet:
    def sample(seed, count):
        return list(map(to_bin, map(abs, _mixed_int(seed, count))))
    return DSet("bin", _value_eq, sample, enumeration=tuple(to_bin(n) for n in range(17)))


# ---------------------------------------------------------------------------
# shipped instances


@lru_cache(maxsize=None)
def nat_add_monoid() -> StructureInstance:
    ops = {"op": lambda a, b: a + b, "identity": lambda: 0}
    return StructureInstance(Kind.COMMUTATIVE_MONOID, nat_dset(), ops, "nat-add")


@lru_cache(maxsize=None)
def nat_mul_monoid() -> StructureInstance:
    ops = {"op": lambda a, b: a * b, "identity": lambda: 1}
    return StructureInstance(Kind.COMMUTATIVE_MONOID, nat_dset(), ops, "nat-mul")


@lru_cache(maxsize=None)
def pos_nat_mul_monoid() -> StructureInstance:
    """Nonzero naturals under multiplication; cancellation holds here."""
    ops = {"op": lambda a, b: a * b, "identity": lambda: 1}
    return StructureInstance(Kind.CC_MONOID, pos_nat_dset(), ops, "nat-pos-mul")


@lru_cache(maxsize=None)
def int_add_group() -> StructureInstance:
    ops = {"op": lambda a, b: a + b, "identity": lambda: 0, "inverse": lambda a: -a}
    return StructureInstance(Kind.COMMUTATIVE_GROUP, int_dset(), ops, "int-add")


@lru_cache(maxsize=None)
def nat_monus_semigroup() -> StructureInstance:
    """Negative control: truncated subtraction is NOT associative.

    Registered so law checking demonstrably finds counterexamples; excluded
    from the lawful-instance roster.
    """
    ops = {"op": monus}
    return StructureInstance(Kind.SEMIGROUP, nat_dset(), ops, "nat-monus")


@lru_cache(maxsize=None)
def bin_add_monoid() -> StructureInstance:
    """Addition transported onto canonical bit lists through the coding.
    to_bin is an isomorphism onto (N, +), so power transports too: one
    decode, nat-add's square-and-multiply, one encode, the same counts."""

    def op(a, b):
        return to_bin(from_bin(a) + from_bin(b))

    def power(a, n):
        value, squarings, mults = power_instrumented(nat_add_monoid(), from_bin(a), n)
        return to_bin(value), squarings, mults

    ops = {"op": op, "identity": lambda: [], "power": power}
    return StructureInstance(Kind.COMMUTATIVE_MONOID, bin_dset(), ops, "bin-add")
