"""List certificates: a stable sort returning an order certificate plus a
permutation witness, and the append-based reversal functions used by the
lemma corpus.

The sort runs through the builtin sorted() with a key derived from the
order's leq. Under an order with the native_int role (int_order() or a
copy of it), on a list of plain ints, the key is the element, so no
comparison calls back into Python; any other order or element type (bool
included) takes the leq route, the tests' oracle. verify_sort_result
re-decides every adjacent pair, so it trusts neither route.
"""

from __future__ import annotations

from functools import cmp_to_key, lru_cache

from .structures import NO, YES, Decision, Record


# ---------------------------------------------------------------------------
# certified sorting


class DecTotalOrder(Record):
    """leq(x, y) decides x <= y on the DSet base. native_int is a role: ints
    under <=, so they key the sort."""

    __slots__ = ("base", "leq", "native_int")
    _defaults = (False,)


class SortResult(Record):
    """ys sorted output; ord_cert holds the adjacent-pair order decisions;
    perm maps input positions to output positions (ys[perm[i]] is xs[i])."""

    __slots__ = ("ys", "ord_cert", "perm")


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


def verify_sort_result(dto: DecTotalOrder, xs, result: SortResult) -> bool:
    """Independent re-check: perm is a bijection of the positions carrying
    each input element onto an equal element of ys, and adjacent pairs
    re-decide as ordered. The bijection is what proves that ys is the
    input's multiset under the carrier's eq, so no separate count is taken."""
    xs = list(xs)
    ys = result.ys
    perm = result.perm
    n = len(xs)
    if len(ys) != n or len(perm) != n:
        return False
    if len(result.ord_cert) != max(n - 1, 0):
        return False
    if not {*map(type, perm)} <= {int} or sorted(perm) != list(range(n)):
        return False
    eq = dto.base.eq
    for i, x in enumerate(xs):
        if not eq(ys[perm[i]], x).holds:
            return False
    # every claimed decision must be a Decision that holds, and re-decide so
    leq = dto.leq
    for y, z, d in zip(ys, ys[1:], result.ord_cert):
        if not (type(d) is Decision and d.holds and leq(y, z).holds):
            return False
    return True


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
