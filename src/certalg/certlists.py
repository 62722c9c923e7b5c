"""List certificates: a stable sort returning an order certificate plus a
permutation witness, and the append-based reversal functions used by the
lemma corpus.

The sort runs through the builtin sorted() with a key derived from the
order's leq. Under an order with the native_int role (int_order() or a
copy of it), on a list of plain ints, the key is the element, so no
comparison calls back into Python; any other order or element type (bool
included) takes the leq route, the tests' oracle. The kernel's
verify_sort_result re-decides every adjacent pair, so it trusts neither route.
"""

from __future__ import annotations

from functools import cmp_to_key, lru_cache

# verify_sort_result: an old perfbench path, retired by ROADMAP item 1
from .kernel import NO, YES, Record, SortResult, verify_sort_result


# ---------------------------------------------------------------------------
# certified sorting


class DecTotalOrder(Record):
    """leq(x, y) decides x <= y on the DSet base. native_int is a role: ints
    under <=, so they key the sort."""

    __slots__ = ("base", "leq", "native_int")
    _defaults = (False,)


def sort_certified(dto: DecTotalOrder, xs) -> SortResult:
    """Stable sort; ties keep the earlier input index first.

    sorted() only asks whether one key is below another (cmp < 0), and x
    goes strictly before y exactly when leq(y, x) fails, so one leq decision
    answers each question.
    """
    leq = dto.leq
    xs = tuple(xs)
    if dto.native_int and {*map(type, xs)} <= {int}:
        keys = xs  # leq is <= on these, so the ints order themselves, in C
    else:
        keys = list(map(cmp_to_key(lambda x, y: 0 if leq(y, x).holds else -1), xs))
    order = sorted(range(len(xs)), key=keys.__getitem__)
    ys = tuple(map(xs.__getitem__, order))
    perm = [0] * len(xs)
    for out_pos, in_pos in enumerate(order):
        perm[in_pos] = out_pos
    return SortResult(ys, tuple(map(leq, ys, ys[1:])), tuple(perm))


@lru_cache(maxsize=None)
def int_order() -> DecTotalOrder:
    from .numbers import int_dset

    def leq(a, b):
        return YES if a <= b else NO

    return DecTotalOrder(int_dset(), leq, native_int=True)


@lru_cache(maxsize=None)
def fraction_order() -> DecTotalOrder:
    """Order on canonical fractions; denominators are positive, so the
    cross-multiplied comparison needs no sign care."""
    from .fractions import fraction_field

    field = fraction_field()

    def leq(a, b):
        return YES if a.num * b.den <= b.num * a.den else NO

    return DecTotalOrder(field.base, leq)


# ---------------------------------------------------------------------------
# reversal via repeated append


def append(xs: list, ys: list) -> list:
    return list(xs) + list(ys)


def rev(xs: list) -> list:
    """Reverse by appending the head onto the reversed tail,
    rev(xs) = append(rev(xs[1:]), [xs[0]]), unrolled from the shortest tail
    up so that long lists do not exhaust the stack."""
    out = []
    for x in reversed(xs):
        out = append(out, [x])
    return out
