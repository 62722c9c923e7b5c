"""Sparse univariate polynomials over a coefficient ring instance.

Terms are (coefficient, exponent) pairs ordered by decreasing exponent
with no zero coefficients; the zero polynomial has no terms. Values carry
their coefficient-ring handle; mixing handles is a structural error.
Addition is a single merge pass. poly_mul convolves through the
coefficient ring's ops; over a quotient of the integers (a ring with the
to_int and from_int roles) it sums each exponent's products as plain ints
and maps every sum back once.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field

from .errors import StructuralError
from .structures import NO, YES, DSet, Kind, StructureInstance


@dataclass(frozen=True)
class Poly:
    ring: StructureInstance = field(compare=False, repr=False)
    terms: tuple = ()

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*x^{e}" if e else f"{c}" for c, e in self.terms)


def mk_poly(ring: StructureInstance, raw) -> Poly:
    """Canonicalize an iterable of (coeff, exp): combine exponents, drop
    zero coefficients, sort by decreasing exponent."""
    add = ring.ops["add"]
    zero = ring.ops["zero"]()
    eq = ring.base.eq
    by_exp = {}
    for c, e in raw:
        if e < 0:
            raise StructuralError(f"negative exponent {e}")
        by_exp[e] = add(by_exp[e], c) if e in by_exp else c
    terms = tuple((c, e) for e, c in sorted(by_exp.items(), reverse=True)
                  if not eq(c, zero).holds)
    return Poly(ring, terms)


def _check_handles(p: Poly, q: Poly):
    if p.ring is not q.ring:
        raise StructuralError("polynomials over different coefficient rings")


def poly_add(p: Poly, q: Poly) -> Poly:
    """Single merge pass over the two descending term lists."""
    _check_handles(p, q)
    ring = p.ring
    add = ring.ops["add"]
    zero = ring.ops["zero"]()
    eq = ring.base.eq
    out = []
    i = j = 0
    pt, qt = p.terms, q.terms
    while i < len(pt) and j < len(qt):
        c1, e1 = pt[i]
        c2, e2 = qt[j]
        if e1 > e2:
            out.append((c1, e1))
            i += 1
        elif e2 > e1:
            out.append((c2, e2))
            j += 1
        else:
            c = add(c1, c2)
            if not eq(c, zero).holds:
                out.append((c, e1))
            i += 1
            j += 1
    out.extend(pt[i:])
    out.extend(qt[j:])
    return Poly(ring, tuple(out))


def poly_neg(p: Poly) -> Poly:
    neg = p.ring.ops["neg"]
    return Poly(p.ring, tuple((neg(c), e) for c, e in p.terms))


def degree(p: Poly):
    """Largest exponent, or None for the zero polynomial."""
    return p.terms[0][1] if p.terms else None


def poly_mul(p: Poly, q: Poly) -> Poly:
    """Convolution, then re-canonicalization. from_int is a ring
    homomorphism with from_int(to_int(c)) == c, so mapping each exponent's
    integer sum back gives the coefficient the ring ops would."""
    _check_handles(p, q)
    ring = p.ring
    to_int, from_int = ring.ops.get("to_int"), ring.ops.get("from_int")
    if to_int is None or from_int is None:
        mul = ring.ops["mul"]
        return mk_poly(ring, [(mul(c1, c2), e1 + e2)
                              for c1, e1 in p.terms for c2, e2 in q.terms])
    qs = [(to_int(c), e) for c, e in q.terms]
    sums = defaultdict(int)
    for c1, e1 in p.terms:
        a = to_int(c1)
        for c2, e2 in qs:
            sums[e1 + e2] += a * c2
    eq, zero = ring.base.eq, ring.ops["zero"]()
    terms = ((from_int(sums[e]), e) for e in sorted(sums, reverse=True))
    return Poly(ring, tuple((c, e) for c, e in terms if not eq(c, zero).holds))


def poly_group(ring: StructureInstance) -> StructureInstance:
    """The additive group of polynomials over the given coefficient ring."""
    coeff_eq = ring.base.eq

    def eq(p, q):
        if len(p.terms) != len(q.terms):
            return NO
        for (c1, e1), (c2, e2) in zip(p.terms, q.terms):
            if e1 != e2 or not coeff_eq(c1, c2).holds:
                return NO
        return YES

    coeff_sample = ring.base.sample

    def sample(seed, count):
        rng = random.Random(seed)
        coeffs = coeff_sample(seed ^ 0x7A1, count * 4)
        out = []
        k = 0
        for _ in range(count):
            n_terms = rng.randint(0, 4)
            raw = []
            for _ in range(n_terms):
                raw.append((coeffs[k % len(coeffs)], rng.randint(0, 12)))
                k += 1
            out.append(mk_poly(ring, raw))
        return out

    small = ring.base.enumeration[:3] if ring.base.enumeration else ring.base.sample(7, 3)
    enum = []
    for c2 in small:
        for c1 in small:
            for c0 in small:
                p = mk_poly(ring, [(c2, 2), (c1, 1), (c0, 0)])
                if p not in enum:
                    enum.append(p)

    zero = ring.ops["zero"]()

    def variants(p, rng):
        raw = list(p.terms)
        rng.shuffle(raw)
        raw.append((zero, rng.randint(0, 12)))
        return [mk_poly(ring, raw)]

    dset = DSet(f"poly({ring.base.name})", eq, sample, tuple(enum), variants)
    ops = {
        "op": poly_add,
        "identity": lambda: Poly(ring, ()),
        "inverse": poly_neg,
    }
    return StructureInstance(Kind.COMMUTATIVE_GROUP, dset, ops, f"poly-{ring.name}-add")
