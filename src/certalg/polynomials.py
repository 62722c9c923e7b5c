"""Sparse univariate polynomials over a coefficient ring instance.

Terms are (coefficient, exponent) pairs ordered by decreasing exponent
with no zero coefficients; the zero polynomial has no terms. Values carry
their coefficient-ring handle; mixing handles is a structural error.
Addition is a single merge pass. poly_mul convolves through the
coefficient ring's ops; over a quotient of the integers (a ring with the
to_int and from_int roles) it computes each exponent's integer sum and maps
every sum back once. A dense product of long enough operands packs each
operand's integers into one big int and multiplies once (Kronecker
substitution); a sparse or short product sums term pairs in a loop.
"""

from __future__ import annotations

import random
import sys
from collections import defaultdict
from itertools import product, repeat
from operator import itemgetter
from struct import calcsize, iter_unpack

from .errors import StructuralError
from .structures import NO, YES, DSet, Kind, Record, StructureInstance, below


class Poly(Record):
    __slots__ = ("ring", "terms")
    _defaults = ((),)
    _hidden = ("ring",)

    def __str__(self):
        """Highest power first, as in "3*x^2 - x + 1": the sign of a negative
        integer coefficient becomes the operator before its term."""
        if not self.terms:
            return "0"
        parts = []
        for i, (c, e) in enumerate(self.terms):
            negative = isinstance(c, int) and c < 0
            a = -c if negative else c
            if e == 0:
                body = str(a)
            elif e == 1:
                body = "x" if a == 1 else f"{a}*x"
            else:
                body = f"x^{e}" if a == 1 else f"{a}*x^{e}"
            if i == 0:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)


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
    integer sum back gives the coefficient the ring ops would, however the
    sums are computed: by one big-int product (_kronecker) when the product
    is dense, both operands have _PACK_MIN_TERMS terms and the slots hold no
    more bytes than the loop's products, else by the pair loop. Dense means
    no more exponent slots, from the lowest exponent, than term pairs. Every
    slot is as wide as the largest possible sum, so one huge coefficient
    among small ones would widen them all; such products take the loop."""
    _check_handles(p, q)
    ring = p.ring
    to_int, from_int = ring.ops.get("to_int"), ring.ops.get("from_int")
    if to_int is None or from_int is None:
        mul = ring.ops["mul"]
        return mk_poly(ring, [(mul(c1, c2), e1 + e2)
                              for c1, e1 in p.terms for c2, e2 in q.terms])
    ps = [(to_int(c), e) for c, e in p.terms]
    qs = [(to_int(c), e) for c, e in q.terms]
    dense = (min(len(ps), len(qs)) >= _PACK_MIN_TERMS
             and ps[0][1] - ps[-1][1] + qs[0][1] - qs[-1][1] < len(ps) * len(qs))
    sums = _kronecker(ps, qs) if dense else None
    if sums is not None:
        low = ps[-1][1] + qs[-1][1]
        items = zip(reversed(sums), range(low + len(sums) - 1, low - 1, -1))
    else:
        by_exp = defaultdict(int)
        for a, e1 in ps:
            for b, e2 in qs:
                by_exp[e1 + e2] += a * b
        items = ((by_exp[e], e) for e in sorted(by_exp, reverse=True))
    eq, zero = ring.base.eq, ring.ops["zero"]()
    return Poly(ring, tuple((c, e) for s, e in items
                            if s and not eq(c := from_int(s), zero).holds))


# The packed route costs a pass over each operand and each exponent slot
# plus a few µs fixed; the pair loop one step per term pair. So the shorter
# operand's length decides which is faster: below about 10 terms the loop is.
_PACK_MIN_TERMS = 10

# memoryview cast codes by native width; slots are little-endian
_CAST = {calcsize(code): code for code in "BHIQ"} if sys.byteorder == "little" else {}


def _kronecker(ps, qs):
    """Integer coefficients of the product of two nonempty descending
    (int, exponent) lists, lowest exponent first: each operand is packed
    into one int with a kb-byte slot per exponent, and the two multiply once.
    None when the n slots need more bytes than the pair loop's products,
    len(q) * sum(bytes(a)) + len(p) * sum(bytes(b)).

    Every slot sum is bounded by max|a| * max|b| * min(len), which stays
    below 2^(8kb-1); adding 2^(8kb-1) to each slot makes every slot a
    non-negative kb-byte number, so the slots decode independently.
    """
    bound = max(abs(a) for a, _ in ps) * max(abs(b) for b, _ in qs) * min(len(ps), len(qs))
    kb = bound.bit_length() // 8 + 1
    n = ps[0][1] - ps[-1][1] + qs[0][1] - qs[-1][1] + 1
    if kb * n > (len(qs) * sum(a.bit_length() // 8 + 1 for a, _ in ps)
                 + len(ps) * sum(b.bit_length() // 8 + 1 for b, _ in qs)):
        return None
    # a 3-byte slot widens to 4 and decodes as one array; 5 to 7 bytes stay
    # as they are, since widening to 8 costs the product more than the cast saves
    if kb <= 4 and _CAST:
        kb = 1 << (kb - 1).bit_length()

    def pack(terms):
        low = terms[-1][1]
        size = kb * (terms[0][1] - low + 1)
        pos, neg = bytearray(size), bytearray(size)
        for a, e in terms:
            at = kb * (e - low)
            if a >= 0:
                pos[at:at + kb] = a.to_bytes(kb, "little")
            else:
                neg[at:at + kb] = (-a).to_bytes(kb, "little")
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    half = 1 << (8 * kb - 1)
    bias = int.from_bytes(half.to_bytes(kb, "little") * n, "little")
    raw = (pack(ps) * pack(qs) + bias).to_bytes(kb * n, "little")
    if kb in _CAST:
        slots = memoryview(raw).cast(_CAST[kb]).tolist()
    else:  # kb-byte fields, cut and read by C loops on any host
        fields = map(itemgetter(0), iter_unpack(f"{kb}s", raw))
        slots = map(int.from_bytes, fields, repeat("little"))
    return [s - half for s in slots]


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
            n_terms = below(rng, 5)
            raw = []
            for _ in range(n_terms):
                raw.append((coeffs[k % len(coeffs)], below(rng, 13)))
                k += 1
            out.append(mk_poly(ring, raw))
        return out

    small = ring.base.enumeration[:3] if ring.base.enumeration else ring.base.sample(7, 3)
    enum = dict.fromkeys(mk_poly(ring, [(c2, 2), (c1, 1), (c0, 0)])
                         for c2, c1, c0 in product(small, repeat=3))

    zero = ring.ops["zero"]()

    def variants(p, rng):
        raw = list(p.terms)
        rng.shuffle(raw)
        raw.append((zero, below(rng, 13)))
        return mk_poly(ring, raw)

    dset = DSet(f"poly({ring.base.name})", eq, sample, tuple(enum), variants)
    ops = {
        "op": poly_add,
        "identity": lambda: Poly(ring, ()),
        "inverse": poly_neg,
    }
    return StructureInstance(Kind.COMMUTATIVE_GROUP, dset, ops, f"poly-{ring.name}-add")
