"""Sparse univariate polynomials as additive groups over a coefficient ring."""

import random
import tracemalloc
from collections import defaultdict

import pytest
from hypothesis import given, strategies as st

from certalg import polynomials
from certalg.errors import StructuralError
from certalg.euclid import int_ring, make_residue, residue_ring
from certalg.polynomials import (Poly, degree, mk_poly, poly_add, poly_group,
                                 poly_mul, poly_neg)
from certalg.structures import Kind, check_laws

RING = int_ring()


def terms_of(p: Poly):
    return [(c, e) for c, e in p.terms]


def dense_add(raw1, raw2):
    """Dense-array oracle for addition of raw term lists."""
    top = max([e for _, e in raw1 + raw2], default=0)
    arr = [0] * (top + 1)
    for c, e in raw1 + raw2:
        arr[e] += c
    return [(c, e) for e, c in sorted(enumerate(arr), reverse=True) if c]


def test_mk_poly_combines_sorts_and_drops_zeros():
    p = mk_poly(RING, [(1, 2), (3, 0), (2, 2), (-3, 0)])
    assert terms_of(p) == [(3, 2)]
    assert terms_of(mk_poly(RING, [])) == []
    assert terms_of(mk_poly(RING, [(0, 5)])) == []


def test_mk_poly_orders_descending_by_exponent():
    p = mk_poly(RING, [(1, 0), (2, 3), (5, 1)])
    assert terms_of(p) == [(2, 3), (5, 1), (1, 0)]


def test_mk_poly_rejects_negative_exponents():
    with pytest.raises(StructuralError):
        mk_poly(RING, [(1, -1)])


def test_degree():
    assert degree(mk_poly(RING, [(4, 7), (1, 0)])) == 7
    assert degree(mk_poly(RING, [(5, 0)])) == 0
    assert degree(mk_poly(RING, [])) is None


def test_poly_add_cancels_leading_terms():
    p = mk_poly(RING, [(2, 3), (1, 1)])
    q = mk_poly(RING, [(-2, 3), (4, 0)])
    assert terms_of(poly_add(p, q)) == [(1, 1), (4, 0)]


raw_terms = st.lists(
    st.tuples(st.integers(min_value=-9, max_value=9),
              st.integers(min_value=0, max_value=12)),
    max_size=8)


@given(raw_terms, raw_terms)
def test_poly_add_matches_dense_oracle(raw1, raw2):
    p, q = mk_poly(RING, raw1), mk_poly(RING, raw2)
    assert terms_of(poly_add(p, q)) == dense_add(raw1, raw2)


@given(raw_terms)
def test_poly_neg_is_an_additive_inverse(raw):
    p = mk_poly(RING, raw)
    assert terms_of(poly_add(p, poly_neg(p))) == []


def test_poly_mul_known_product():
    # (x + 1)(x - 1) = x^2 - 1
    p = mk_poly(RING, [(1, 1), (1, 0)])
    q = mk_poly(RING, [(1, 1), (-1, 0)])
    assert terms_of(poly_mul(p, q)) == [(1, 2), (-1, 0)]


def test_polys_from_different_rings_do_not_mix():
    z7 = residue_ring(int_ring(), 7)
    p = mk_poly(RING, [(1, 1)])
    q = mk_poly(z7, [(make_residue(int_ring(), 7, 1), 1)])
    with pytest.raises(StructuralError):
        poly_add(p, q)


def test_poly_group_over_int_is_lawful():
    g = poly_group(RING)
    assert g.kind is Kind.COMMUTATIVE_GROUP
    assert check_laws(g, seed=1, budget=120).ok


def test_poly_group_over_residue_ring_is_lawful():
    g = poly_group(residue_ring(int_ring(), 7))
    assert check_laws(g, seed=2, budget=120).ok


# poly_group's enumeration over Z: c2*x^2 + c1*x + c0 for c2, c1, c0 in
# (0, 1, -1), the first three elements of int_ring()'s carrier, each
# polynomial kept where it is first seen (terms as (coefficient, exponent))
POLY_INT_ENUMERATION = [
    (), ((1, 0),), ((-1, 0),), ((1, 1),), ((1, 1), (1, 0)), ((1, 1), (-1, 0)),
    ((-1, 1),), ((-1, 1), (1, 0)), ((-1, 1), (-1, 0)),
    ((1, 2),), ((1, 2), (1, 0)), ((1, 2), (-1, 0)), ((1, 2), (1, 1)),
    ((1, 2), (1, 1), (1, 0)), ((1, 2), (1, 1), (-1, 0)), ((1, 2), (-1, 1)),
    ((1, 2), (-1, 1), (1, 0)), ((1, 2), (-1, 1), (-1, 0)),
    ((-1, 2),), ((-1, 2), (1, 0)), ((-1, 2), (-1, 0)), ((-1, 2), (1, 1)),
    ((-1, 2), (1, 1), (1, 0)), ((-1, 2), (1, 1), (-1, 0)), ((-1, 2), (-1, 1)),
    ((-1, 2), (-1, 1), (1, 0)), ((-1, 2), (-1, 1), (-1, 0)),
]

# the same over Z/(7), whose carrier starts 0, 1, 2 (coefficients as values)
POLY_ZMOD7_ENUMERATION = [
    (), ((1, 0),), ((2, 0),), ((1, 1),), ((1, 1), (1, 0)), ((1, 1), (2, 0)),
    ((2, 1),), ((2, 1), (1, 0)), ((2, 1), (2, 0)),
    ((1, 2),), ((1, 2), (1, 0)), ((1, 2), (2, 0)), ((1, 2), (1, 1)),
    ((1, 2), (1, 1), (1, 0)), ((1, 2), (1, 1), (2, 0)), ((1, 2), (2, 1)),
    ((1, 2), (2, 1), (1, 0)), ((1, 2), (2, 1), (2, 0)),
    ((2, 2),), ((2, 2), (1, 0)), ((2, 2), (2, 0)), ((2, 2), (1, 1)),
    ((2, 2), (1, 1), (1, 0)), ((2, 2), (1, 1), (2, 0)), ((2, 2), (2, 1)),
    ((2, 2), (2, 1), (1, 0)), ((2, 2), (2, 1), (2, 0)),
]


def test_poly_group_enumerations_are_pinned():
    """The law sweeps read these in order; CASE_DIGESTS sees only the first
    four of each, while laws --sweep 27 reaches them all."""
    enum = poly_group(RING).base.enumeration
    assert type(enum) is tuple
    assert [p.terms for p in enum] == POLY_INT_ENUMERATION
    assert all(type(c) is int for p in enum for c, _ in p.terms)
    z7 = residue_ring(int_ring(), 7)
    enum = poly_group(z7).base.enumeration
    assert type(enum) is tuple
    assert [p.terms for p in enum] == [
        tuple((make_residue(int_ring(), 7, c), e) for c, e in terms)
        for terms in POLY_ZMOD7_ENUMERATION]
    assert all(p.ring is z7 for p in enum)


def test_poly_group_addition_over_zmod7_wraps_coefficients():
    z7 = residue_ring(int_ring(), 7)
    g = poly_group(z7)
    r = lambda v: make_residue(int_ring(), 7, v)
    p = mk_poly(z7, [(r(4), 2)])
    q = mk_poly(z7, [(r(3), 2), (r(1), 0)])
    s = g.ops["op"](p, q)
    # 4 + 3 wraps to 0 mod 7, killing the quadratic term
    assert terms_of(s) == [(r(1), 0)]


def test_random_add_matches_oracle_over_zmod7():
    z7 = residue_ring(int_ring(), 7)
    r = lambda v: make_residue(int_ring(), 7, v)
    rng = random.Random(13)
    for _ in range(200):
        raw1 = [(rng.randrange(7), rng.randrange(9)) for _ in range(rng.randrange(6))]
        raw2 = [(rng.randrange(7), rng.randrange(9)) for _ in range(rng.randrange(6))]
        p = mk_poly(z7, [(r(c), e) for c, e in raw1])
        q = mk_poly(z7, [(r(c), e) for c, e in raw2])
        got = [(c.value, e) for c, e in poly_add(p, q).terms]
        acc = {}
        for c, e in raw1 + raw2:
            acc[e] = (acc.get(e, 0) + c) % 7
        expect = sorted(((c, e) for e, c in acc.items() if c),
                        key=lambda t: -t[1])
        assert got == expect


# ================================================================
# poly_mul through to_int/from_int against the ring-ops route
# ================================================================


def _without_int_roles(ring):
    ops = {k: f for k, f in ring.ops.items() if k not in ("to_int", "from_int")}
    return type(ring)(ring.kind, ring.base, ops, ring.name)


@pytest.mark.parametrize("m", [None, 2, 7, 12, -7, 9973])
def test_poly_mul_with_int_roles_matches_the_ring_ops_route(m):
    ring = RING if m is None else residue_ring(RING, m)
    coeff = (lambda v: v) if m is None else (lambda v: make_residue(RING, m, v))
    assert "to_int" in ring.ops and "from_int" in ring.ops
    plain = _without_int_roles(ring)
    rng = random.Random(17)
    pairs = [[[(coeff(rng.randint(-99, 99)), rng.randrange(3 * n + 1)) for _ in range(n)]
              for _ in range(2)] for n in (0, 1, 2, 5, 40) for _ in range(6)]
    one, minus = coeff(1), coeff(-1)
    pairs += [
        [[(one, 1), (one, 0)], [(one, 1), (minus, 0)]],  # x^2 - 1
        [[(one, 1), (one, 0)], [(one, 1), (one, 0)]],    # 2x vanishes mod 2
        [[(coeff(2), 1)], [(coeff(6), 3)]],              # 12x^4 vanishes mod 12
        [[(coeff(7), 2)], [(one, 0)]],                   # zero mod 7
        [[], [(one, 3)]],
        [[(one, 3)], []],
    ]
    for raw_p, raw_q in pairs:
        p, q = mk_poly(ring, raw_p), mk_poly(ring, raw_q)
        got = poly_mul(p, q)
        want = poly_mul(Poly(plain, p.terms), Poly(plain, q.terms))
        assert got.ring is ring and got.terms == want.terms


def test_poly_mul_products_that_cancel():
    z12, z2 = residue_ring(RING, 12), residue_ring(RING, 2)
    r12 = lambda v: make_residue(RING, 12, v)
    assert poly_mul(mk_poly(z12, [(r12(4), 1)]), mk_poly(z12, [(r12(3), 2)])).terms == ()
    one = make_residue(RING, 2, 1)
    p = mk_poly(z2, [(one, 1), (one, 0)])
    assert terms_of(poly_mul(p, p)) == [(one, 2), (one, 0)]  # 2x vanishes
    assert poly_mul(mk_poly(RING, [(1, 1)]), Poly(RING, ())).terms == ()


# ================================================================
# the packed (Kronecker) route against the int-sum loop and the ring ops
# ================================================================


def int_sum_poly_mul(p, q):
    """The int-sum pair loop that poly_mul ran on every product before the
    packed route, kept as an oracle."""
    ring = p.ring
    to_int, from_int = ring.ops["to_int"], ring.ops["from_int"]
    qs = [(to_int(c), e) for c, e in q.terms]
    sums = defaultdict(int)
    for c1, e1 in p.terms:
        a = to_int(c1)
        for c2, e2 in qs:
            sums[e1 + e2] += a * c2
    eq, zero = ring.base.eq, ring.ops["zero"]()
    terms = ((from_int(sums[e]), e) for e in sorted(sums, reverse=True))
    return Poly(ring, tuple((c, e) for c, e in terms if not eq(c, zero).holds))


@pytest.fixture
def kronecker_calls(monkeypatch):
    """Count the products that take the packed route."""
    calls = []
    real = polynomials._kronecker

    def counting(ps, qs):
        sums = real(ps, qs)
        if sums is not None:
            calls.append((ps, qs))
        return sums

    monkeypatch.setattr(polynomials, "_kronecker", counting)
    return calls


@pytest.fixture
def packed(kronecker_calls, monkeypatch):
    """Count the packed products, and pack every dense product however
    short its operands, so that small cases exercise the packed route."""
    monkeypatch.setattr(polynomials, "_PACK_MIN_TERMS", 1)
    return kronecker_calls


def _packs(p, q):
    """Whether poly_mul should take the packed route: dense, the shorter
    operand has at least _PACK_MIN_TERMS terms, and the slots, each wide
    enough for the largest possible sum, take no more bytes than the pair
    loop's products."""
    if min(len(p.terms), len(q.terms)) < polynomials._PACK_MIN_TERMS:
        return False
    span = p.terms[0][1] - p.terms[-1][1] + q.terms[0][1] - q.terms[-1][1] + 1
    if span > len(p.terms) * len(q.terms):
        return False
    to_int = p.ring.ops["to_int"]
    a, b = ([abs(to_int(c)) for c, _ in r.terms] for r in (p, q))
    width = lambda v: v.bit_length() // 8 + 1
    slot = width(max(a) * max(b) * min(len(a), len(b)))
    return slot * span <= len(b) * sum(map(width, a)) + len(a) * sum(map(width, b))


def _check_all_routes(ring, raw_p, raw_q, packed):
    """poly_mul in both operand orders equals the int-sum loop and the
    role-less ring-ops route, and takes the packed route iff _packs says so."""
    plain = _without_int_roles(ring)
    p, q = mk_poly(ring, raw_p), mk_poly(ring, raw_q)
    for a, b in ((p, q), (q, p)):
        packed.clear()
        got = poly_mul(a, b)
        assert len(packed) == _packs(a, b)
        assert got.ring is ring
        assert got.terms == int_sum_poly_mul(a, b).terms
        assert got.terms == poly_mul(Poly(plain, a.terms), Poly(plain, b.terms)).terms
    return got


def _random_products(ring, draw, rng, packed) -> int:
    """Random operand pairs from dense to sparse through _check_all_routes;
    returns how many took the packed route."""
    dense = 0
    for n in (1, 2, 3, 5, 20, 60):
        for spread in (1, 3, 40):  # exponents drawn below spread * n + 1
            for _ in range(3):
                raw_p, raw_q = ([(draw(), rng.randrange(spread * k + 1)) for _ in range(k)]
                                for k in (n, rng.randint(1, n)))
                _check_all_routes(ring, raw_p, raw_q, packed)
                dense += bool(packed)
    return dense


@pytest.mark.parametrize("bits", [1, 2, 7, 8, 9, 63, 64, 65, 128, 256])
def test_packed_route_over_int_with_mixed_sign_coefficients(bits, packed):
    rng = random.Random(bits)

    def draw():  # a nonzero coefficient of 1 to `bits` bits, either sign
        width = rng.randint(1, bits)
        return rng.choice((1, -1)) * (rng.getrandbits(width - 1) | 1 << (width - 1))

    assert _random_products(RING, draw, rng, packed) > 20


@pytest.mark.parametrize("m", [2, 7, 12, -7, 9973, 2**61 - 1])
def test_packed_route_over_zmod(m, packed):
    rng = random.Random(m)
    draw = lambda: make_residue(RING, m, rng.randrange(1, abs(m)))
    assert _random_products(residue_ring(RING, m), draw, rng, packed) > 20


def test_packed_route_on_zero_constant_and_single_term_operands(packed):
    z12, z2 = residue_ring(RING, 12), residue_ring(RING, 2)
    r12 = lambda v: make_residue(RING, 12, v)
    one2 = make_residue(RING, 2, 1)
    # (4x^2 + 4x + 4)(3x + 3) is 12 times something: the zero polynomial
    assert _check_all_routes(z12, [(r12(4), 2), (r12(4), 1), (r12(4), 0)],
                             [(r12(3), 1), (r12(3), 0)], packed).terms == ()
    assert packed
    # (x + 1)^2 = x^2 + 1 over Z/(2)
    got = _check_all_routes(z2, [(one2, 1), (one2, 0)], [(one2, 1), (one2, 0)], packed)
    assert terms_of(got) == [(one2, 2), (one2, 0)]
    dense_p = [(c, e) for e, c in enumerate((3, -1, 4, -1, 5, -9, 2, 6))]
    for raw_q in ([(7, 0)], [(-7, 0)], [(5, 11)], [(-1, 10**12)], []):
        _check_all_routes(RING, dense_p, raw_q, packed)
        _check_all_routes(RING, raw_q, raw_q, packed)
    assert terms_of(poly_mul(mk_poly(RING, [(3, 4)]), mk_poly(RING, [(-5, 6)]))) == [(-15, 10)]


@pytest.mark.parametrize("kb, copies, past", [
    (1, 1, 0), (1, 1, 1), (2, 1, 0), (2, 7, 0), (2, 1, 1), (8, 7, 0), (8, 1, 1),
    (12, 31, 0), (12, 1, 1), (33, 1, 0), (33, 1, 1)])
def test_packed_route_decodes_slot_sums_at_the_slot_limit(kb, copies, past, packed):
    # every pair in a 'copies'-term run contributes big*(+-1) with one sign,
    # so one slot sums to +limit and another to -limit. 2^(8kb-1) - 1 is the
    # largest |sum| a kb-byte slot holds; one past it needs a wider slot.
    limit = 2 ** (8 * kb - 1) - 1 + past
    big, rest = divmod(limit, copies)
    assert rest == 0
    run = lambda c, shift: [(c, k + shift) for k in range(copies)]
    p = run(big, 0)
    q = run(1, copies) + run(-1, 0)
    got = _check_all_routes(RING, p, q, packed)
    assert packed
    coeffs = {c for c, _ in got.terms}
    assert max(coeffs) == limit and min(coeffs) == -limit


@pytest.mark.parametrize("bits", [40, 50, 60, 70, 80, 90])
def test_packed_route_decodes_wide_slots_like_the_pair_loop(bits, kronecker_calls):
    # products of 10 to 30 terms a side whose slots are 9 to 24 bytes wide,
    # wider than any memoryview cast code, each against the pair loop
    rng = random.Random(bits)
    widths = set()
    for n in (10, 11, 17, 30):
        raw_p, raw_q = ([(rng.choice((1, -1)) * rng.getrandbits(bits), e) for e in range(k)]
                        for k in (n, n + 3))
        _check_all_routes(RING, raw_p, raw_q, kronecker_calls)
        assert kronecker_calls
        p, q = mk_poly(RING, raw_p), mk_poly(RING, raw_q)
        bound = (max(abs(c) for c, _ in p.terms) * max(abs(c) for c, _ in q.terms)
                 * min(len(p.terms), len(q.terms)))
        widths.add(bound.bit_length() // 8 + 1)
    assert 9 <= min(widths) and max(widths) <= 24


@pytest.mark.parametrize("kb, fields", [(3, None), (5, "5s"), (6, "6s"), (7, "7s")])
def test_packed_route_widens_only_3_byte_slots(kb, fields, kronecker_calls, monkeypatch):
    # 3-byte slots widen to 4 and decode through a cast; 5- to 7-byte slots
    # keep their width and decode as fields, each against the pair loop
    formats = []
    real = polynomials.iter_unpack
    monkeypatch.setattr(polynomials, "iter_unpack",
                        lambda fmt, raw: formats.append(fmt) or real(fmt, raw))
    rng = random.Random(kb)
    bits = (8 * kb - 8) // 2  # so the slot bound, |a| * |b| * 12, needs kb bytes
    raw_p, raw_q = ([(rng.choice((1, -1)) * (rng.getrandbits(bits) | 1 << (bits - 1)), e)
                     for e in range(k)] for k in (12, 15))
    p, q = mk_poly(RING, raw_p), mk_poly(RING, raw_q)
    bound = max(abs(c) for c, _ in p.terms) * max(abs(c) for c, _ in q.terms) * 12
    assert bound.bit_length() // 8 + 1 == kb
    _check_all_routes(RING, raw_p, raw_q, kronecker_calls)
    assert kronecker_calls
    if polynomials._CAST:  # a host without cast codes reads every width as fields
        assert formats == ([fields] * 2 if fields else [])


@pytest.mark.parametrize("bits", [1, 7, 8, 9, 31, 64, 65, 90])
def test_packed_route_without_cast_codes(bits, packed, monkeypatch):
    # as on a big-endian host: no cast code, so slots of every width are
    # read as kb-byte fields
    monkeypatch.setattr(polynomials, "_CAST", {})
    rng = random.Random(bits)

    def draw():
        return rng.choice((1, -1)) * (rng.getrandbits(bits - 1) | 1 << (bits - 1))

    assert _random_products(RING, draw, rng, packed) > 20


def test_sparse_products_stay_in_the_pair_loop(packed):
    p = mk_poly(RING, [(1, 10**9 + 7), (3, 5)])
    q = mk_poly(RING, [(1, 10**9), (-2, 0)])
    tracemalloc.start()
    try:
        got = poly_mul(p, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not packed and peak < 2**20
    assert terms_of(got) == [(1, 2 * 10**9 + 7), (-2, 10**9 + 7), (3, 10**9 + 5), (-6, 5)]


def test_one_wide_coefficient_keeps_a_dense_product_in_the_pair_loop(kronecker_calls):
    # (10^1000 + x + ... + x^99) * sum of x^(100j), j < 100: 10,000 slots for
    # 10,000 term pairs is dense, but every slot would be as wide as the
    # 10^1000 term, about 4 MB against the loop's 60 KB of products
    p = [(10**1000, 0)] + [(1, e) for e in range(1, 100)]
    q = [(1, 100 * j) for j in range(100)]
    assert 99 + 9900 + 1 <= len(p) * len(q)
    got = _check_all_routes(RING, p, q, kronecker_calls)
    assert not kronecker_calls
    assert len(got.terms) == 10_000 and got.terms[-1] == (10**1000, 0)
    tracemalloc.start()
    try:
        poly_mul(mk_poly(RING, p), mk_poly(RING, q))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not kronecker_calls and peak < 4 * 2**20


def test_short_products_stay_in_the_pair_loop(kronecker_calls):
    # below _PACK_MIN_TERMS terms on the shorter side the pair loop is the
    # faster route, however dense the product
    rng = random.Random(9)
    short = polynomials._PACK_MIN_TERMS - 1
    draw = lambda k: [(rng.choice((1, -1)) * rng.randint(1, 99), e) for e in range(k)]
    for n, m in ((1, 1), (2, 2), (1, 200), (2, 64), (short, short), (short, 400)):
        _check_all_routes(RING, draw(n), draw(m), kronecker_calls)
        assert not kronecker_calls
    for n, m in ((short + 1, short + 1), (short + 1, 300), (50, 50)):
        _check_all_routes(RING, draw(n), draw(m), kronecker_calls)
        assert kronecker_calls
