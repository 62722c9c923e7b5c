"""The law catalogue per instance, and ring laws that catch broken rings."""

import hashlib
import math

import pytest

from roles import without_roles
from certalg.cli import LAWFUL_INSTANCE_NAMES, resolve_instance
from certalg.euclid import int_ring, residue_ring
from certalg.factorization import int_factorization_ring
from certalg.fractions import (Fraction, fraction_field, inverse, is_canonical,
                               neg_fraction)
from certalg.kernel import NO, YES
from certalg.laws import _laws_for, check_laws, recheck_failure
from certalg.structures import DSet, Kind, StructureInstance, seeded


# ============================================================
# the catalogue, pinned: sorted (name, sample arity)
# ============================================================


_SEMIGROUP = [
    ("associativity(op)", 3),
    ("congruence(op)", 2),
]

_COMMUTATIVE_MONOID = [
    ("associativity(op)", 3),
    ("commutativity(op)", 2),
    ("congruence(op)", 2),
    ("identity(op)", 1),
]

_CC_MONOID = [
    ("associativity(op)", 3),
    ("cancellation-left", 3),
    ("cancellation-right", 3),
    ("commutativity(op)", 2),
    ("congruence(op)", 2),
    ("identity(op)", 1),
]

_FACTORIZATION_MONOID = [
    ("associativity(op)", 3),
    ("cancellation-left", 3),
    ("cancellation-right", 3),
    ("commutativity(op)", 2),
    ("congruence(op)", 2),
    ("factorization-reconstructs", 1),
    ("identity(op)", 1),
]

_COMMUTATIVE_GROUP = [
    ("associativity(op)", 3),
    ("commutativity(op)", 2),
    ("congruence(inverse)", 1),
    ("congruence(op)", 2),
    ("identity(op)", 1),
    ("inverse(op)", 1),
    ("inverse-antihomomorphism", 2),
    ("inverse-uniqueness", 2),
]

_COMMUTATIVE_RING = [
    ("associativity(add)", 3),
    ("associativity(mul)", 3),
    ("commutativity(add)", 2),
    ("commutativity(mul)", 2),
    ("congruence(add)", 2),
    ("congruence(mul)", 2),
    ("congruence(neg)", 1),
    ("distributivity-left", 3),
    ("distributivity-right", 3),
    ("identity(add)", 1),
    ("identity(mul)", 1),
    ("inverse(add)", 1),
]

_EUCLIDEAN_RING = [
    ("associativity(add)", 3),
    ("associativity(mul)", 3),
    ("commutativity(add)", 2),
    ("commutativity(mul)", 2),
    ("congruence(add)", 2),
    ("congruence(mul)", 2),
    ("congruence(neg)", 1),
    ("distributivity-left", 3),
    ("distributivity-right", 3),
    ("division-contract", 2),
    ("gcd-divides", 2),
    ("identity(add)", 1),
    ("identity(mul)", 1),
    ("inverse(add)", 1),
    ("no-zero-divisors", 2),
]

_UNIQUE_FACTORIZATION_RING = [
    ("associativity(add)", 3),
    ("associativity(mul)", 3),
    ("commutativity(add)", 2),
    ("commutativity(mul)", 2),
    ("congruence(add)", 2),
    ("congruence(mul)", 2),
    ("congruence(neg)", 1),
    ("distributivity-left", 3),
    ("distributivity-right", 3),
    ("factorization-reconstructs", 1),
    ("gcd-divides", 2),
    ("identity(add)", 1),
    ("identity(mul)", 1),
    ("inverse(add)", 1),
    ("no-zero-divisors", 2),
]

_FIELD = [
    ("associativity(add)", 3),
    ("associativity(mul)", 3),
    ("commutativity(add)", 2),
    ("commutativity(mul)", 2),
    ("congruence(add)", 2),
    ("congruence(inv)", 1),
    ("congruence(mul)", 2),
    ("congruence(neg)", 1),
    ("distributivity-left", 3),
    ("distributivity-right", 3),
    ("identity(add)", 1),
    ("identity(mul)", 1),
    ("inverse(add)", 1),
    ("multiplicative-inverse", 1),
    ("no-zero-divisors", 2),
]

# the native_int role's law, on the instances that declare the role
_NATIVE_INT = [("native-int", 2)]

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
    rows = sorted((law.name, law.sample_arity) for law in _laws_for(resolve_instance(name)))
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
    "nat-add": ("abad7b15cab8c30f", "abad7b15cab8c30f", "abad7b15cab8c30f"),
    "nat-mul": ("abad7b15cab8c30f", "abad7b15cab8c30f", "abad7b15cab8c30f"),
    "nat-pos-mul": ("020f586c4c5bbf13", "020f586c4c5bbf13", "020f586c4c5bbf13"),
    "int-add": ("d1a529550c482f76", "d1a529550c482f76", "d1a529550c482f76"),
    "int-ring": ("1191b125169f4fce", "1191b125169f4fce", "1191b125169f4fce"),
    "int-ufd": ("0e38c1b7ab730273", "0e38c1b7ab730273", "0e38c1b7ab730273"),
    "nat-factor-monoid": ("9e2e2e5b36dd9db0", "9e2e2e5b36dd9db0", "9e2e2e5b36dd9db0"),
    "bin-add": ("abad7b15cab8c30f", "abad7b15cab8c30f", "abad7b15cab8c30f"),
    "frac-field": ("568bc57c2d53ccc5", "568bc57c2d53ccc5", "568bc57c2d53ccc5"),
    "poly-int-add": ("d1a529550c482f76", "d1a529550c482f76", "d1a529550c482f76"),
    "poly-zmod7-add": ("d1a529550c482f76", "d1a529550c482f76", "d1a529550c482f76"),
    "zmod6-ring": ("19655af841ddc949", "19655af841ddc949", "19655af841ddc949"),
    "zmod12-ring": ("19655af841ddc949", "19655af841ddc949", "19655af841ddc949"),
    "zmod7-field": ("568bc57c2d53ccc5", "568bc57c2d53ccc5", "568bc57c2d53ccc5"),
    "zmod97-field": ("568bc57c2d53ccc5", "568bc57c2d53ccc5", "568bc57c2d53ccc5"),
    "nat-monus": ("00014adeef018b73", "78de77bef6bdc0c0", "53985bf133e7f538"),
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
    "nat-add": ("619188ab2971dcee", "2f402190228b11bc", "63b290070a889fe4"),
    "nat-mul": ("d0d604a79cdf5973", "a4a27539880cc38a", "1bc45786eb2e756c"),
    "nat-pos-mul": ("2c620debecff3950", "ac3090fc5f8ff127", "de317a13673b82b5"),
    "int-add": ("6dea40c954346b9b", "ef8ae799a32721b0", "ad1679b5063f3b9e"),
    "int-ring": ("0867e08ea03493b7", "4ab5f0706e795a44", "eff3ba97a390989d"),
    "int-ufd": ("e3a93bd9917afd7d", "50f4c938ed9910aa", "8759dc8d18f42427"),
    "nat-factor-monoid": ("d0cfe0964e9e81d4", "81cb3bb5be1ba3dd", "51d26bb245068583"),
    "bin-add": ("f396ec99f0b5e091", "77528fcceff3642f", "e248329754bdead9"),
    "frac-field": ("6b487874e1d58dd3", "f12e1e073db9be7a", "b505392e6beb5f66"),
    "poly-int-add": ("86223f8c51f946ca", "8c5e9d24dfd30276", "015d648199e7b877"),
    "poly-zmod7-add": ("543ef780cd347c63", "1b8444e82ee3224a", "32b9803c0be27c08"),
    "zmod6-ring": ("471e5300e682b90a", "adfa6d3ff72423ce", "68aacb84ca198642"),
    "zmod12-ring": ("3ea6ca907868194e", "e0249850f9ee84b6", "d9f1c2e54f054e8b"),
    "zmod7-field": ("50041a18fc585b32", "7699570000d861b6", "45fb60c970d7897b"),
    "zmod97-field": ("71533f28771b81ca", "bc8feda1d762c2f1", "399b373e10eb09b1"),
    "nat-monus": ("19ef99ff2c43c41c", "e89c7ac2e946f63a", "ab31d36078b9fff4"),
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


# Beside the roster's carriers: Z/(257), past the interned tables, and Z/(12)
# over the integers without native_int, whose residues take the generic route
VARIANT_CARRIERS = (*(n for n in LAWFUL_INSTANCE_NAMES if resolve_instance(n).base.variants),
                    "zmod257-field", "generic-zmod12-ring")


def _variant_carrier(name):
    if name == "generic-zmod12-ring":
        return residue_ring(without_roles(int_ring(), "native_int"), 12).base
    return resolve_instance(name).base


@pytest.mark.parametrize("name", VARIANT_CARRIERS)
def test_a_variant_is_a_function_of_x_alone(name):
    # variants(x) is eq-equal to x, is not x, and is the same value on every
    # call, over the enumeration and three seeds' samples
    dset = _variant_carrier(name)
    for x in (*dset.enumeration, *dset.sample(1, 64), *dset.sample(2, 64), *dset.sample(3, 64)):
        v = dset.variants(x)
        assert dset.eq(v, x).holds and v is not x, (x, v)
        assert v == dset.variants(x), x


# ============================================================
# ring laws against deliberately broken rings
# ============================================================


def _broken(inst, kind=None, base=None, **ops):
    return StructureInstance(kind or inst.kind, base or inst.base,
                             {**inst.ops, **ops}, f"broken-{inst.name}")


def _value_eq(x, y):
    return YES if x.num * y.den == y.num * x.den else NO


def _unreduced_variants(x):
    k = 2 + abs(x.num) % 4
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
