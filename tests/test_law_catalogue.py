"""The law catalogue per instance, and ring laws that catch broken rings."""

import hashlib
import math
import random

import pytest

from roles import without_roles
from certalg.cli import LAWFUL_INSTANCE_NAMES, resolve_instance
from certalg.euclid import int_ring, residue_ring
from certalg.factorization import int_factorization_ring
from certalg.fractions import (Fraction, fraction_field, inverse, is_canonical,
                               neg_fraction)
from certalg.structures import (NO, YES, DSet, Kind, StructureInstance,
                                _laws_for, check_laws, recheck_failure, seeded)


# ============================================================
# the catalogue, pinned: sorted (name, sample arity, case arity, variant)
# ============================================================


_SEMIGROUP = [
    ("associativity(op)", 3, 3, False),
    ("congruence(op)", 2, 3, True),
]

_COMMUTATIVE_MONOID = [
    ("associativity(op)", 3, 3, False),
    ("commutativity(op)", 2, 2, False),
    ("congruence(op)", 2, 3, True),
    ("identity(op)", 1, 1, False),
]

_CC_MONOID = [
    ("associativity(op)", 3, 3, False),
    ("cancellation-left", 3, 3, False),
    ("cancellation-right", 3, 3, False),
    ("commutativity(op)", 2, 2, False),
    ("congruence(op)", 2, 3, True),
    ("identity(op)", 1, 1, False),
]

_FACTORIZATION_MONOID = [
    ("associativity(op)", 3, 3, False),
    ("cancellation-left", 3, 3, False),
    ("cancellation-right", 3, 3, False),
    ("commutativity(op)", 2, 2, False),
    ("congruence(op)", 2, 3, True),
    ("factorization-reconstructs", 1, 1, False),
    ("identity(op)", 1, 1, False),
]

_COMMUTATIVE_GROUP = [
    ("associativity(op)", 3, 3, False),
    ("commutativity(op)", 2, 2, False),
    ("congruence(inverse)", 1, 2, True),
    ("congruence(op)", 2, 3, True),
    ("identity(op)", 1, 1, False),
    ("inverse(op)", 1, 1, False),
    ("inverse-antihomomorphism", 2, 2, False),
    ("inverse-uniqueness", 2, 2, False),
]

_COMMUTATIVE_RING = [
    ("associativity(add)", 3, 3, False),
    ("associativity(mul)", 3, 3, False),
    ("commutativity(add)", 2, 2, False),
    ("commutativity(mul)", 2, 2, False),
    ("congruence(add)", 2, 3, True),
    ("congruence(mul)", 2, 3, True),
    ("congruence(neg)", 1, 2, True),
    ("distributivity-left", 3, 3, False),
    ("distributivity-right", 3, 3, False),
    ("identity(add)", 1, 1, False),
    ("identity(mul)", 1, 1, False),
    ("inverse(add)", 1, 1, False),
]

_EUCLIDEAN_RING = [
    ("associativity(add)", 3, 3, False),
    ("associativity(mul)", 3, 3, False),
    ("commutativity(add)", 2, 2, False),
    ("commutativity(mul)", 2, 2, False),
    ("congruence(add)", 2, 3, True),
    ("congruence(mul)", 2, 3, True),
    ("congruence(neg)", 1, 2, True),
    ("distributivity-left", 3, 3, False),
    ("distributivity-right", 3, 3, False),
    ("division-contract", 2, 2, False),
    ("gcd-divides", 2, 2, False),
    ("identity(add)", 1, 1, False),
    ("identity(mul)", 1, 1, False),
    ("inverse(add)", 1, 1, False),
    ("no-zero-divisors", 2, 2, False),
]

_UNIQUE_FACTORIZATION_RING = [
    ("associativity(add)", 3, 3, False),
    ("associativity(mul)", 3, 3, False),
    ("commutativity(add)", 2, 2, False),
    ("commutativity(mul)", 2, 2, False),
    ("congruence(add)", 2, 3, True),
    ("congruence(mul)", 2, 3, True),
    ("congruence(neg)", 1, 2, True),
    ("distributivity-left", 3, 3, False),
    ("distributivity-right", 3, 3, False),
    ("factorization-reconstructs", 1, 1, False),
    ("gcd-divides", 2, 2, False),
    ("identity(add)", 1, 1, False),
    ("identity(mul)", 1, 1, False),
    ("inverse(add)", 1, 1, False),
    ("no-zero-divisors", 2, 2, False),
]

_FIELD = [
    ("associativity(add)", 3, 3, False),
    ("associativity(mul)", 3, 3, False),
    ("commutativity(add)", 2, 2, False),
    ("commutativity(mul)", 2, 2, False),
    ("congruence(add)", 2, 3, True),
    ("congruence(inv)", 1, 2, True),
    ("congruence(mul)", 2, 3, True),
    ("congruence(neg)", 1, 2, True),
    ("distributivity-left", 3, 3, False),
    ("distributivity-right", 3, 3, False),
    ("identity(add)", 1, 1, False),
    ("identity(mul)", 1, 1, False),
    ("inverse(add)", 1, 1, False),
    ("multiplicative-inverse", 1, 1, False),
    ("no-zero-divisors", 2, 2, False),
]

# the native_int role's law, on the instances that declare the role
_NATIVE_INT = [("native-int", 2, 2, False)]

CATALOGUE = {
    "nat-add": _COMMUTATIVE_MONOID,
    "nat-mul": _COMMUTATIVE_MONOID,
    "nat-pos-mul": _CC_MONOID,
    "int-add": _COMMUTATIVE_GROUP,
    "int-ring": sorted(_EUCLIDEAN_RING + _NATIVE_INT),
    "int-ufd": sorted(_UNIQUE_FACTORIZATION_RING + _NATIVE_INT),
    "nat-factor-monoid": _FACTORIZATION_MONOID,
    "bin-add": _COMMUTATIVE_MONOID,
    "frac-field": _FIELD,
    "poly-int-add": _COMMUTATIVE_GROUP,
    "poly-zmod7-add": _COMMUTATIVE_GROUP,
    "zmod6-ring": _COMMUTATIVE_RING,
    "zmod12-ring": _COMMUTATIVE_RING,
    "zmod7-field": _FIELD,
    "zmod97-field": _FIELD,
    "nat-monus": _SEMIGROUP,
}


def test_the_catalogue_covers_the_whole_laws_roster():
    assert set(LAWFUL_INSTANCE_NAMES) <= set(CATALOGUE)


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_law_catalogue_is_pinned(name):
    rows = sorted((law.name, law.sample_arity, law.case_arity, law.uses_variant)
                  for law in _laws_for(resolve_instance(name)))
    assert rows == CATALOGUE[name]


# sha256 of repr(sample(seed, 64)) for seeds 1, 2 and 3, first 16 hex digits:
# every carrier's seeded stream, pinned, so a change to how a sampler draws
# shows up here and not only as a shifted law verdict
SAMPLE_DIGESTS = {
    "int-add": ("e65e1e0624664fe5", "31bdcf2c0f9a59e1", "94a1c42b92a724e9"),
    "nat-add": ("592e4bb84dc06672", "ff7edca0a123ad92", "9550041a5ce967a5"),
    "nat-pos-mul": ("e628056e3a62602e", "c04c2ad60cb3cf19", "cc455421b69a23e7"),
    "bin-add": ("73f37f33b4af9a7f", "600ba5b9f6735703", "997c2d25ab41d5ae"),
    "zmod7-ring": ("d01b7f58b23e4c34", "076a0b58fb4c3d44", "767c27bb4be87648"),
    "zmod12-ring": ("721cff02a69dffc7", "986d20b407d63de0", "06cbdd766b719e18"),
    "zmod97-field": ("20e862fae154ca1f", "1ac33675848e8a43", "be11c338b3fcad02"),
    "int-ufd": ("eff82fa0e35e6a1b", "5ba96d704f95bc27", "c0d670f23470a52e"),
    "nat-factor-monoid": ("01f7d0a50e909111", "fab827d721dc0570", "222051ba946721ad"),
    "frac-field": ("95613f1c96e12c5d", "f47acde7b196f9f2", "9c76bcd2c06840c6"),
    "poly-int-add": ("48aa513ba1024729", "81dc81573a7a0447", "edd87474ea136620"),
    "poly-zmod7-add": ("a504b146d2c37581", "f2802a266c5e0152", "2af9926d834cbe65"),
}


def test_every_carrier_samples_its_pinned_stream():
    for name, digests in SAMPLE_DIGESTS.items():
        sample = resolve_instance(name).base.sample
        got = tuple(hashlib.sha256(repr(sample(seed, 64)).encode()).hexdigest()[:16]
                    for seed in (1, 2, 3))
        assert got == digests, name


# sha256 of repr((report.cases, report.failures)) for check_laws at seeds 1, 2
# and 3 with the default budget and sweep, first 16 hex digits: every verdict
# of the laws --all roster and of the nat-monus control, pinned, so a faster
# law engine must count the same cases and report the same counterexamples
VERDICT_DIGESTS = {
    "nat-add": ("d45680928383c3a0", "d45680928383c3a0", "d45680928383c3a0"),
    "nat-mul": ("d45680928383c3a0", "d45680928383c3a0", "d45680928383c3a0"),
    "nat-pos-mul": ("683bd26287c82e0a", "683bd26287c82e0a", "683bd26287c82e0a"),
    "int-add": ("7d5e8da86d9c1428", "7d5e8da86d9c1428", "7d5e8da86d9c1428"),
    "int-ring": ("a0ce51fa2d1796cd", "a0ce51fa2d1796cd", "a0ce51fa2d1796cd"),
    "int-ufd": ("e77e69e4e254e18e", "e77e69e4e254e18e", "e77e69e4e254e18e"),
    "nat-factor-monoid": ("53c24f9d15abdd57", "53c24f9d15abdd57", "53c24f9d15abdd57"),
    "bin-add": ("d45680928383c3a0", "d45680928383c3a0", "d45680928383c3a0"),
    "frac-field": ("404ceaefdf327399", "404ceaefdf327399", "404ceaefdf327399"),
    "poly-int-add": ("7d5e8da86d9c1428", "7d5e8da86d9c1428", "7d5e8da86d9c1428"),
    "poly-zmod7-add": ("7d5e8da86d9c1428", "7d5e8da86d9c1428", "7d5e8da86d9c1428"),
    "zmod6-ring": ("34894bf11bc2d5fe", "34894bf11bc2d5fe", "34894bf11bc2d5fe"),
    "zmod12-ring": ("34894bf11bc2d5fe", "34894bf11bc2d5fe", "34894bf11bc2d5fe"),
    "zmod7-field": ("404ceaefdf327399", "404ceaefdf327399", "404ceaefdf327399"),
    "zmod97-field": ("404ceaefdf327399", "404ceaefdf327399", "404ceaefdf327399"),
    "nat-monus": ("46f9c997c162525d", "cb664d9d14b53320", "6ea63640c10ad18e"),
}


def test_every_law_verdict_is_pinned():
    assert set(VERDICT_DIGESTS) == {*LAWFUL_INSTANCE_NAMES, "nat-monus"}
    for name, digests in VERDICT_DIGESTS.items():
        inst = resolve_instance(name)
        got = tuple(hashlib.sha256(repr((r.cases, r.failures)).encode()).hexdigest()[:16]
                    for r in (check_laws(inst, seed=seed) for seed in (1, 2, 3)))
        assert got == digests, name


# sha256 over repr((a, b)) of every pair that eq receives, in call order,
# during check_laws at seeds 1, 2 and 3 with the default budget and sweep,
# first 16 hex digits: the contents of every case, not only the verdicts, so
# a change to which cases are drawn, or how, shows up even when all pass
CASE_DIGESTS = {
    "nat-add": ("9a41383286e13a32", "8f52468d7d5c638d", "5e9108cb3dda8b1a"),
    "nat-mul": ("4572c2b27c9d94d4", "a09bc9b112fbb708", "db74bb5942cb762e"),
    "nat-pos-mul": ("b9d809949aa4c9e0", "9a1a2a32c215b48d", "fc423310c034ec10"),
    "int-add": ("02bb21fb734f70ee", "9b19797220753dfd", "f4711bf788b9c905"),
    "int-ring": ("b97256d4bb64d7fb", "31d4b185dd041f89", "fe839cf4ddd9985a"),
    "int-ufd": ("bb4cc299cfbffe69", "b195b9ed1e745090", "a336928c92c94ae3"),
    "nat-factor-monoid": ("2aa4f9a9faafda4c", "d177a0b0316edf04", "9ba7ee9fd1109e10"),
    "bin-add": ("d71bcf341c65203d", "69c01a3af77b7874", "c10d3a3172a1c2e8"),
    "frac-field": ("d7343430f9373710", "23ab50cdf3ffa54b", "1d8d970f1c68b5c9"),
    "poly-int-add": ("f79650d8133b89b7", "0ca495dd67fc3826", "59f1cbec8ba1dbbe"),
    "poly-zmod7-add": ("855ac8132dc36cb1", "47fac80c6cfa017d", "3705fad376888786"),
    "zmod6-ring": ("e452ac1906177dd7", "01a01fbb2c1529f9", "40a35fbe72ce6416"),
    "zmod12-ring": ("a533015b81925cdb", "b7f39e039c911b4a", "e6e54d401a012ee9"),
    "zmod7-field": ("e2efcddaa0ffdf74", "7983bb74d86dc744", "bf1f92c843f9556b"),
    "zmod97-field": ("8d43505ea0bc87f5", "bbdefc7f7de77f50", "6f4034ddb22fdfca"),
    "nat-monus": ("9bbfd6a0da14c438", "df637b35cb98779f", "6a16dc3ff3d6c29b"),
}


def _eq_digest(inst, seed):
    """check_laws on inst rebuilt through the public constructors, with an eq
    that hashes each argument pair before it decides."""
    base = inst.base
    h = hashlib.sha256()

    def eq(a, b):
        h.update(repr((a, b)).encode())
        return base.eq(a, b)

    dset = DSet(base.name, eq, base.sample, base.enumeration, base.variants)
    check_laws(StructureInstance(inst.kind, dset, inst.ops, inst.name), seed=seed)
    return h.hexdigest()[:16]


def test_every_law_case_is_pinned():
    assert set(CASE_DIGESTS) == {*LAWFUL_INSTANCE_NAMES, "nat-monus"}
    for name, digests in CASE_DIGESTS.items():
        inst = resolve_instance(name)
        assert tuple(_eq_digest(inst, seed) for seed in (1, 2, 3)) == digests, name


# sha256 of repr(rng.getstate()) after one variants(x, rng) call for each x
# of sample(seed, 64), with rng = random.Random(seed), for seeds 1, 2 and 3,
# first 16 hex digits. A variant has x's repr, so CASE_DIGESTS cannot see how
# it was drawn; the generator's state after the draws pins every draw. Beside
# the roster's carriers: Z/(257), past the interned tables, and Z/(12) over
# the integers without native_int, whose residues take the generic route.
VARIANT_STATE_DIGESTS = {
    "frac-field": ("4053d77b313a6de8", "ed32975077fc8f5d", "a94ef486e2644d3b"),
    "poly-int-add": ("d62d7f8898bbf574", "f068a88f88407128", "85310e3b8e209726"),
    "poly-zmod7-add": ("70bfcd25770450ca", "ea3ee0e6a07bbae0", "7360d572d93dc714"),
    "zmod6-ring": ("37911c1299a5ecfd", "301f320420b0c6e3", "9252b3ff0efa15da"),
    "zmod12-ring": ("37911c1299a5ecfd", "301f320420b0c6e3", "9252b3ff0efa15da"),
    "zmod7-field": ("37911c1299a5ecfd", "301f320420b0c6e3", "9252b3ff0efa15da"),
    "zmod97-field": ("37911c1299a5ecfd", "301f320420b0c6e3", "9252b3ff0efa15da"),
    "zmod257-field": ("37911c1299a5ecfd", "301f320420b0c6e3", "9252b3ff0efa15da"),
    "generic-zmod12-ring": ("37911c1299a5ecfd", "301f320420b0c6e3", "9252b3ff0efa15da"),
}


def _variant_carrier(name):
    if name == "generic-zmod12-ring":
        return residue_ring(without_roles(int_ring(), "native_int"), 12).base
    return resolve_instance(name).base


def _variant_state_digest(dset, seed):
    rng = random.Random(seed)
    for x in dset.sample(seed, 64):
        dset.variants(x, rng)
    return hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()[:16]


def test_every_variant_draw_is_pinned():
    assert {n for n in LAWFUL_INSTANCE_NAMES
            if resolve_instance(n).base.variants is not None} <= set(VARIANT_STATE_DIGESTS)
    for name, digests in VARIANT_STATE_DIGESTS.items():
        dset = _variant_carrier(name)
        assert tuple(_variant_state_digest(dset, seed) for seed in (1, 2, 3)) == digests, name


# ============================================================
# ring laws against deliberately broken rings
# ============================================================


def _broken(inst, kind=None, base=None, **ops):
    return StructureInstance(kind or inst.kind, base or inst.base,
                             {**inst.ops, **ops}, f"broken-{inst.name}")


def _value_eq(x, y):
    return YES if x.num * y.den == y.num * x.den else NO


def _unreduced_variants(x, rng):
    k = rng.randint(2, 5)
    return Fraction(x.num * k, x.den * k)


def _unreduced_fractions():
    """ℚ whose variants are unreduced pairs, equal to the original by value,
    so an op that reads the representation shows as a congruence failure."""
    base = fraction_field().base
    return DSet("frac-unreduced", _value_eq, base.sample, base.enumeration,
                _unreduced_variants)


_Z = int_ring()
_Q = fraction_field()


def _canonical_only(op):
    """op on a reduced fraction, and the input itself on any other."""
    return lambda x: op(_Z, x) if is_canonical(_Z, x) else x


def _doubled_factor(x):
    return int_factorization_ring().ops["factor"](2 * x)


BROKEN_RINGS = {
    "associativity(mul)": lambda: _broken(_Z, mul=lambda a, b: a * b + 1),
    "distributivity-left": lambda: _broken(_Z, mul=lambda a, b: a * b * b),
    "distributivity-right": lambda: _broken(_Z, mul=lambda a, b: a * a * b),
    "identity(mul)": lambda: _broken(_Z, one=lambda: 2),
    "commutativity(mul)": lambda: _broken(_Z, mul=lambda a, b: a * b + a - b),
    "inverse(add)": lambda: _broken(_Z, neg=lambda a: a),
    "congruence(neg)": lambda: _broken(
        _Q, base=_unreduced_fractions(), neg=_canonical_only(neg_fraction)),
    "no-zero-divisors": lambda: _broken(residue_ring(_Z, 6), kind=Kind.INTEGRAL_RING),
    "gcd-divides": lambda: _broken(_Z, gcd=lambda a, b: 2 * _Z.ops["gcd"](a, b)),
    "division-contract": lambda: _broken(_Z, norm=lambda a: 0),
    "factorization-reconstructs": lambda: _broken(int_factorization_ring(),
                                                  factor=_doubled_factor),
    "multiplicative-inverse": lambda: _broken(_Q, inv=lambda x: x),
    "congruence(inv)": lambda: _broken(
        _Q, base=_unreduced_fractions(), inv=_canonical_only(inverse)),
    # lawful as a ring, but the native fraction routes would not use this
    # canon_unit, so the native_int claim is false
    "native-int": lambda: _broken(_Z, canon_unit=lambda a: 1),
}


@pytest.mark.parametrize("law", sorted(BROKEN_RINGS))
def test_broken_ring_is_reported_under_its_law(law):
    inst = BROKEN_RINGS[law]()
    assert law in {l.name for l in _laws_for(inst)}
    report = check_laws(inst, seed=1, budget=60, sweep=4)
    cases = [case for name, case in report.failures if name == law]
    assert cases, f"{law} not reported; got {sorted({n for n, _ in report.failures})}"
    for case in cases[:5]:
        assert recheck_failure(inst, law, case)


def test_a_false_native_int_claim_fails_only_the_role_law():
    # also on a carrier of bools: int arithmetic takes them, but they are not int
    bools = DSet("bool", _Z.base.eq, seeded(lambda rng: rng.random() < 0.5), (False, True))
    for inst in (BROKEN_RINGS["native-int"](), _broken(_Z, base=bools)):
        report = check_laws(inst, seed=1, budget=60, sweep=4)
        assert {name for name, _ in report.failures} == {"native-int"}


# every op a native route stands in for, changed so that it leaves int
# arithmetic (in value, or only in type) while the native_int role stays
FALSE_NATIVE_OPS = {
    "add": lambda a, b: a - b,
    "neg": lambda a: a,
    "mul": lambda a, b: a * b + 1,
    "zero": lambda: 0.0,
    "one": lambda: -1,
    "div_mod": divmod,
    "gcd": lambda a, b: float(math.gcd(a, b)),
    "canon_unit": lambda a: 1,
    "is_unit": lambda a: a == 1,
}


@pytest.mark.parametrize("role", sorted(FALSE_NATIVE_OPS))
def test_the_role_law_checks_every_op_a_native_route_replaces(role):
    for inst in (_Z, int_factorization_ring()):
        assert check_laws(inst, seed=1, budget=60).ok
        broken = _broken(inst, **{role: FALSE_NATIVE_OPS[role]})
        report = check_laws(broken, seed=1, budget=60, sweep=4)
        cases = [case for name, case in report.failures if name == "native-int"]
        assert cases, role
        assert all(recheck_failure(broken, "native-int", case) for case in cases[:5])
