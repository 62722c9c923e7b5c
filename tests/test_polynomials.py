"""Sparse univariate polynomials as additive groups over a coefficient ring."""

import random

import pytest
from hypothesis import given, strategies as st

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
