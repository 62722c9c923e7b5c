"""Certified sorting and the list lemmas."""

import random
from collections import Counter
from functools import cmp_to_key
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from roles import spied, without_roles
from certalg import certlists
from certalg.certlists import (DecTotalOrder, SortResult, append,
                               fraction_order, int_order, rev, sort_certified,
                               verify_sort_result)
from certalg.euclid import int_ring
from certalg.fractions import mk_fraction
from certalg.numbers import int_dset
from certalg.structures import NO, YES, Decision


# ================================================================
# certified sorting
# ================================================================


def test_sort_small_example():
    res = sort_certified(int_order(), [5, 3, 9, 1])
    assert list(res.ys) == [1, 3, 5, 9]
    assert verify_sort_result(int_order(), [5, 3, 9, 1], res)


def test_sort_permutation_semantics():
    xs = [7, 1, 4]
    res = sort_certified(int_order(), xs)
    for i, x in enumerate(xs):
        assert res.ys[res.perm[i]] == x


def test_sort_empty_and_singleton():
    for xs in ([], [42]):
        res = sort_certified(int_order(), xs)
        assert list(res.ys) == sorted(xs)
        assert verify_sort_result(int_order(), xs, res)


def test_sort_is_stable_on_ties():
    # order only by parity, so 21 and 41 tie; stability keeps input order
    parity = DecTotalOrder(
        base=int_dset(),
        leq=lambda a, b: Decision.yes() if a % 2 <= b % 2 else Decision.no((a, b)))
    xs = [21, 40, 41, 20]
    res = sort_certified(parity, xs)
    assert list(res.ys) == [40, 20, 21, 41]
    assert verify_sort_result(parity, xs, res)


def test_sort_duplicates_map_to_distinct_slots():
    xs = [2, 1, 2, 1]
    res = sort_certified(int_order(), xs)
    assert list(res.ys) == [1, 1, 2, 2]
    assert sorted(res.perm) == [0, 1, 2, 3]
    # stability: the first 1 in input lands before the second
    assert res.perm[1] < res.perm[3]
    assert res.perm[0] < res.perm[2]


@given(st.lists(st.integers(min_value=-50, max_value=50), max_size=120))
def test_sort_matches_builtin_and_verifies(xs):
    res = sort_certified(int_order(), xs)
    assert list(res.ys) == sorted(xs)
    assert verify_sort_result(int_order(), xs, res)


def test_verify_rejects_forged_outputs():
    xs = [5, 3, 9, 1]
    good = sort_certified(int_order(), xs)

    # wrong multiset: an element replaced
    forged = SortResult([1, 3, 5, 8], good.ord_cert, good.perm)
    assert not verify_sort_result(int_order(), xs, forged)

    # non-bijective permutation
    forged = SortResult(good.ys, good.ord_cert, [0, 0, 2, 3])
    assert not verify_sort_result(int_order(), xs, forged)

    # permutation pointing at the wrong slots
    forged = SortResult(good.ys, good.ord_cert, [0, 1, 2, 3])
    assert not verify_sort_result(int_order(), xs, forged)

    # unsorted output smuggled in with its honest permutation
    forged = SortResult([9, 5, 3, 1], good.ord_cert, [1, 2, 0, 3])
    assert not verify_sort_result(int_order(), xs, forged)

    # truncated order certificate
    forged = SortResult(good.ys, good.ord_cert[:-1], good.perm)
    assert not verify_sort_result(int_order(), xs, forged)

    # order certificate with a lying decision
    lying = tuple(Decision.yes() for _ in good.ord_cert)
    forged = SortResult([9, 5, 3, 1], lying, [1, 2, 0, 3])
    assert not verify_sort_result(int_order(), xs, forged)


def test_verify_rejects_order_certificates_that_are_not_holding_decisions():
    xs = [3, 1, 2]
    good = sort_certified(int_order(), xs)
    assert verify_sort_result(int_order(), xs, good)
    # holding Decisions other than the shared YES are accepted
    fresh = SortResult(good.ys, (Decision.yes(), Decision.yes("witness")), good.perm)
    assert verify_sort_result(int_order(), xs, fresh)

    class RaisingEq:
        def __eq__(self, other):
            raise RuntimeError("eq called")

    # mock.ANY compares equal to YES; RaisingEq raises if compared at all
    for entry in (True, 1, None, NO, Decision.no(), mock.ANY, RaisingEq()):
        for cert in ((entry, YES), (YES, entry)):
            forged = SortResult(good.ys, cert, good.perm)
            assert not verify_sort_result(int_order(), xs, forged), cert


def test_verify_refuses_what_is_not_a_sort_result():
    xs = [5, 3, 9, 1]
    good = sort_certified(int_order(), xs)
    assert verify_sort_result(int_order(), xs, good)
    for probe in (None, "sorted", (good.ys, good.ord_cert, good.perm), list(good.ys)):
        assert verify_sort_result(int_order(), xs, probe) is False, probe


@pytest.mark.parametrize("field", ["ys", "ord_cert", "perm"])
def test_verify_refuses_sort_result_fields_of_none(field):
    xs = [5, 3, 9, 1]
    good = sort_certified(int_order(), xs)
    fields = {"ys": good.ys, "ord_cert": good.ord_cert, "perm": good.perm, field: None}
    assert verify_sort_result(int_order(), xs, SortResult(**fields)) is False


def test_verify_rejects_perm_entries_that_are_not_ints():
    xs = [5, 3, 9, 1]
    good = sort_certified(int_order(), xs)
    for entry in (2.0, "2", None, True):
        perm = tuple(entry if p == 2 else p for p in good.perm)
        assert not verify_sort_result(int_order(), xs, SortResult(good.ys, good.ord_cert, perm))


def test_fraction_order_sorts_by_value():
    ring = int_ring()
    xs = [mk_fraction(ring, 1, 2), mk_fraction(ring, -3, 4),
          mk_fraction(ring, 2, 1), mk_fraction(ring, 1, 3)]
    res = sort_certified(fraction_order(), xs)
    assert [str(f) for f in res.ys] == ["-3/4", "1/3", "1/2", "2"]
    assert verify_sort_result(fraction_order(), xs, res)


def merge_sort_certified(dto, xs) -> SortResult:
    """The former library sort, kept as the oracle: a stable top-down merge
    sort that takes the left item whenever leq(left, right) holds."""
    leq = dto.leq
    items = [(x, i) for i, x in enumerate(xs)]

    def merge_sort(seq):
        if len(seq) <= 1:
            return seq
        mid = len(seq) // 2
        left = merge_sort(seq[:mid])
        right = merge_sort(seq[mid:])
        out = []
        i = j = 0
        while i < len(left) and j < len(right):
            if leq(left[i][0], right[j][0]).holds:
                out.append(left[i])
                i += 1
            else:
                out.append(right[j])
                j += 1
        out.extend(left[i:])
        out.extend(right[j:])
        return out

    ordered = merge_sort(items)
    ys = tuple(x for x, _ in ordered)
    perm = [0] * len(xs)
    for out_pos, (_, in_pos) in enumerate(ordered):
        perm[in_pos] = out_pos
    ord_cert = tuple(leq(ys[i], ys[i + 1]) for i in range(len(ys) - 1))
    return SortResult(ys, ord_cert, tuple(perm))


def _int_lists():
    rng = random.Random(20)
    for n in (0, 1, 2, 3, 10, 100, 1000):
        for many_dups in (False, True):
            xs = [rng.randint(0, 4) if many_dups else rng.randint(-10**6, 10**6)
                  for _ in range(n)]
            yield xs
            yield sorted(xs)
            yield sorted(xs, reverse=True)


PARITY = DecTotalOrder(int_dset(), lambda a, b: Decision(a % 2 <= b % 2))


@pytest.mark.parametrize("dto", [int_order(), PARITY], ids=["int", "parity"])
def test_sort_matches_merge_sort_oracle_on_ints(dto):
    for xs in _int_lists():
        res = sort_certified(dto, xs)
        oracle = merge_sort_certified(dto, xs)
        assert (res.ys, res.perm) == (oracle.ys, oracle.perm)
        assert verify_sort_result(dto, xs, res)


def test_sort_matches_merge_sort_oracle_on_fractions():
    ring = int_ring()
    rng = random.Random(21)
    for n in (0, 1, 5, 300):
        # small numerators and denominators, so equal values arise often
        xs = [mk_fraction(ring, rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)]
        res = sort_certified(fraction_order(), xs)
        oracle = merge_sort_certified(fraction_order(), xs)
        assert (res.ys, res.perm) == (oracle.ys, oracle.perm)
        assert verify_sort_result(fraction_order(), xs, res)


# int_order() without its native_int role, so sort_certified takes the leq
# route: the oracle for int_order()'s int route
LEQ_INT_ORDER = without_roles(int_order(), "native_int")


def _int_route_lists():
    rng = random.Random(22)
    yield []
    yield [7]
    yield [3] * 50
    for n in (2, 10, 100, 1000, 10_000):
        xs = [rng.randint(-10**6, 10**6) for _ in range(n)]
        yield xs
        yield sorted(xs)
        yield sorted(xs, reverse=True)
        yield [rng.randint(0, 4) for _ in range(n)]
    yield [rng.getrandbits(200) - 2**199 for _ in range(500)]


def test_int_order_route_matches_the_leq_route():
    # a copy keeps the role; both routes decide the n-1 adjacent pairs with
    # leq, and only the leq route also sorts with it
    fast, fast_calls = spied(int_order())
    slow, slow_calls = spied(LEQ_INT_ORDER)
    for xs in _int_route_lists():
        fast_calls.clear()
        slow_calls.clear()
        res = sort_certified(fast, xs)
        oracle = sort_certified(slow, xs)
        assert (res.ys, res.perm, res.ord_cert) == (oracle.ys, oracle.perm, oracle.ord_cert)
        assert verify_sort_result(int_order(), xs, res)
        assert fast_calls["leq"] == max(len(xs) - 1, 0)
        assert slow_calls["leq"] > fast_calls["leq"] or len(xs) < 2


def test_int_order_takes_the_leq_route_unless_every_element_is_an_int(monkeypatch):
    keyed = []

    def counting_cmp_to_key(cmp):
        keyed.append(cmp)
        return cmp_to_key(cmp)

    monkeypatch.setattr(certlists, "cmp_to_key", counting_cmp_to_key)
    sort_certified(int_order(), [3, 1, 2])
    assert keyed == []
    for xs in ([3, True, 0, False, 1], [2, 1.5, 1]):
        keyed.clear()
        res = sort_certified(int_order(), xs)
        assert len(keyed) == 1
        oracle = sort_certified(LEQ_INT_ORDER, xs)
        assert (res.ys, res.perm, res.ord_cert) == (oracle.ys, oracle.perm, oracle.ord_cert)
        assert all(res.ys[res.perm[i]] is x for i, x in enumerate(xs))
        assert verify_sort_result(int_order(), xs, res)
    keyed.clear()
    sort_certified(LEQ_INT_ORDER, [3, 1, 2])
    assert len(keyed) == 1


def test_orders_return_the_shared_verdicts():
    assert int_order().leq(1, 2) is YES and int_order().leq(2, 1) is NO
    half, third = mk_fraction(int_ring(), 1, 2), mk_fraction(int_ring(), 1, 3)
    assert fraction_order().leq(third, half) is YES
    assert fraction_order().leq(half, third) is NO


def verify_sort_result_with_counts(dto, xs, result) -> bool:
    """The former verifier, kept as the oracle: the same checks followed by
    a multiset comparison, through Counter or, for unhashable elements, a
    scan under the carrier's eq."""
    xs = list(xs)
    ys = result.ys
    perm = result.perm
    n = len(xs)
    if len(ys) != n or len(perm) != n:
        return False
    if len(result.ord_cert) != max(n - 1, 0):
        return False
    if sorted(perm) != list(range(n)):
        return False
    eq = dto.base.eq
    for i, x in enumerate(xs):
        if not eq(ys[perm[i]], x).holds:
            return False
    leq = dto.leq
    for i in range(n - 1):
        if not result.ord_cert[i].holds:
            return False
        if not leq(ys[i], ys[i + 1]).holds:
            return False
    try:
        if Counter(xs) != Counter(ys):
            return False
    except TypeError:
        rest = list(ys)
        for x in xs:
            match = next((j for j, y in enumerate(rest) if eq(y, x).holds), None)
            if match is None:
                return False
            del rest[match]
        if rest:
            return False
    return True


def _forgeries(res, rng, other):
    """Forged variants of a valid result; other() draws a carrier element."""
    ys, cert, perm = list(res.ys), res.ord_cert, list(res.perm)
    n = len(ys)
    replaced = ys[:]
    if n:
        replaced[rng.randrange(n)] = other()
        yield SortResult(tuple(replaced), cert, tuple(perm))
    yield SortResult(tuple(ys + [other()]), cert + (YES,) * (n > 0), tuple(perm))
    if n < 2:
        return
    i, j = rng.sample(range(n), 2)
    swapped = ys[:]
    swapped[i], swapped[j] = swapped[j], swapped[i]
    yield SortResult(tuple(swapped), cert, tuple(perm))  # perm left as it was
    moved = tuple(j if p == i else i if p == j else p for p in perm)
    yield SortResult(tuple(swapped), cert, moved)  # perm follows the swap
    duplicated = ys[:]
    duplicated[i] = ys[j]
    yield SortResult(tuple(duplicated), cert, tuple(perm))
    glued = perm[:]
    glued[i] = glued[j]
    yield SortResult(tuple(ys), cert, tuple(glued))
    yield SortResult(tuple(ys), cert[:-1], tuple(perm))
    yield SortResult(tuple(reversed(ys)), cert, tuple(n - 1 - p for p in perm))


def _order_cases():
    """(order, input, element draw, whether the draws are all distinct)."""
    rng = random.Random(23)
    ring = int_ring()
    small = lambda: rng.randint(-5, 5)
    wide = lambda: rng.randint(-10**9, 10**9)
    frac = lambda: mk_fraction(ring, rng.randint(-6, 6), rng.randint(1, 6))
    for dto, draw, distinct in ((int_order(), small, False), (int_order(), wide, True),
                                (PARITY, small, False), (fraction_order(), frac, False)):
        for n in (0, 1, 2, 3, 8, 40):
            for _ in range(12):
                yield dto, [draw() for _ in range(n)], draw, distinct, rng


def test_verify_without_counts_matches_the_counting_verifier():
    verdicts = Counter()
    for dto, xs, draw, distinct, rng in _order_cases():
        res = sort_certified(dto, xs)
        assert verify_sort_result(dto, xs, res)
        assert verify_sort_result_with_counts(dto, xs, res)
        for f in _forgeries(res, rng, draw):
            verdict = verify_sort_result(dto, xs, f)
            assert verdict == verify_sort_result_with_counts(dto, xs, f), (xs, f)
            # with repeated values a forgery can be a valid result by accident
            assert not (verdict and distinct), (xs, f)
            verdicts[verdict] += 1
    assert verdicts[False] > 2 * verdicts[True] > 0


# ================================================================
# list lemmas: rev and append
# ================================================================


def test_rev_examples():
    assert rev([]) == []
    assert rev([1]) == [1]
    assert rev([1, 2, 3]) == [3, 2, 1]


def test_append_examples():
    assert append([], [1]) == [1]
    assert append([1, 2], [3]) == [1, 2, 3]


@given(st.lists(st.integers(), max_size=60))
def test_rev_rev_is_identity(xs):
    assert rev(rev(xs)) == xs


@given(st.lists(st.integers(), max_size=40), st.lists(st.integers(), max_size=40))
def test_rev_of_append_swaps_and_reverses(xs, ys):
    assert rev(append(xs, ys)) == append(rev(ys), rev(xs))


def test_lemmas_exhaustive_small_alphabet():
    alphabet = ("a", "b", "c")
    lists = [[]]
    frontier = [[]]
    for _ in range(5):
        frontier = [xs + [s] for xs in frontier for s in alphabet]
        lists.extend(frontier)
    for xs in lists:
        assert rev(rev(xs)) == xs
    rng = random.Random(3)
    for _ in range(300):
        xs = rng.choice(lists)
        ys = rng.choice(lists)
        assert rev(append(xs, ys)) == append(rev(ys), rev(xs))


def test_rev_of_a_long_list():
    # once a RecursionError: rev recursed once per element
    xs = list(range(5000))
    assert rev(xs) == xs[::-1]
    assert rev(rev(xs)) == xs
