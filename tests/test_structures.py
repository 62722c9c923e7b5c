"""Law engine tests: kinds, validation, checking, counterexamples."""

import itertools
import pathlib
import random
import re

import pytest

from certalg.errors import StructuralError
from certalg.kernel import Decision
from certalg.laws import _law_seed, _laws_for, check_laws, recheck_failure
from certalg.structures import (DSet, GROUP_LIKE_KINDS, Kind, RING_LIKE_KINDS, StructureInstance,
                                _ROLES, ancestors, below, multiplicative_monoid, validate_instance)
from certalg.numbers import (bin_dset, int_add_group, int_dset, nat_add_monoid, nat_dset,
                             nat_monus_semigroup, pos_nat_dset, to_bin)
from certalg.euclid import Residue, int_ring, residue_ring
from nt_oracles import mixed_int
from roles import without_roles


# ============================================================
# kinds and ancestry
# ============================================================


def test_ancestors_include_self():
    for kind in Kind:
        assert kind in ancestors(kind)


def test_field_sits_on_the_full_ring_tower():
    anc = ancestors(Kind.FIELD)
    for kind in (Kind.MAGMA, Kind.SEMIGROUP, Kind.MONOID, Kind.GROUP,
                 Kind.COMMUTATIVE_GROUP, Kind.RING, Kind.RING_WITH_ONE,
                 Kind.COMMUTATIVE_RING, Kind.INTEGRAL_RING,
                 Kind.FACTORIZATION_RING, Kind.UNIQUE_FACTORIZATION_RING):
        assert kind in anc


def test_monoid_ancestry_is_strictly_smaller_than_group():
    assert ancestors(Kind.MONOID) < ancestors(Kind.GROUP)


def test_commutative_monoid_reaches_commutative_semigroup():
    assert Kind.COMMUTATIVE_SEMIGROUP in ancestors(Kind.COMMUTATIVE_MONOID)


# each kind's ancestors, itself included, and every op role an instance may
# carry, spelled out in full so that a change to the tower shows here
PINNED_ANCESTORS = {
    "MAGMA": {"MAGMA"},
    "SEMIGROUP": {"MAGMA", "SEMIGROUP"},
    "COMMUTATIVE_SEMIGROUP": {"MAGMA", "SEMIGROUP", "COMMUTATIVE_SEMIGROUP"},
    "MONOID": {"MAGMA", "SEMIGROUP", "MONOID"},
    "COMMUTATIVE_MONOID": {"MAGMA", "SEMIGROUP", "COMMUTATIVE_SEMIGROUP", "MONOID",
                           "COMMUTATIVE_MONOID"},
    "CC_MONOID": {"MAGMA", "SEMIGROUP", "COMMUTATIVE_SEMIGROUP", "MONOID", "COMMUTATIVE_MONOID",
                  "CC_MONOID"},
    "FACTORIZATION_MONOID": {"MAGMA", "SEMIGROUP", "COMMUTATIVE_SEMIGROUP", "MONOID",
                             "COMMUTATIVE_MONOID", "CC_MONOID", "FACTORIZATION_MONOID"},
    "GROUP": {"MAGMA", "SEMIGROUP", "MONOID", "GROUP"},
    "COMMUTATIVE_GROUP": {"MAGMA", "SEMIGROUP", "COMMUTATIVE_SEMIGROUP", "MONOID",
                          "COMMUTATIVE_MONOID", "GROUP", "COMMUTATIVE_GROUP"},
    "RINGOID": {"MAGMA", "SEMIGROUP", "COMMUTATIVE_SEMIGROUP", "MONOID", "COMMUTATIVE_MONOID",
                "GROUP", "COMMUTATIVE_GROUP", "RINGOID"},
    "RING": {"MAGMA", "SEMIGROUP", "COMMUTATIVE_SEMIGROUP", "MONOID", "COMMUTATIVE_MONOID",
             "GROUP", "COMMUTATIVE_GROUP", "RINGOID", "RING"},
    "RING_WITH_ONE": {"MAGMA", "SEMIGROUP", "COMMUTATIVE_SEMIGROUP", "MONOID",
                      "COMMUTATIVE_MONOID", "GROUP", "COMMUTATIVE_GROUP", "RINGOID", "RING",
                      "RING_WITH_ONE"},
    "COMMUTATIVE_RING": {"MAGMA", "SEMIGROUP", "COMMUTATIVE_SEMIGROUP", "MONOID",
                         "COMMUTATIVE_MONOID", "GROUP", "COMMUTATIVE_GROUP", "RINGOID", "RING",
                         "RING_WITH_ONE", "COMMUTATIVE_RING"},
    "INTEGRAL_RING": {"MAGMA", "SEMIGROUP", "COMMUTATIVE_SEMIGROUP", "MONOID",
                      "COMMUTATIVE_MONOID", "GROUP", "COMMUTATIVE_GROUP", "RINGOID", "RING",
                      "RING_WITH_ONE", "COMMUTATIVE_RING", "INTEGRAL_RING"},
    "GCD_RING": {"MAGMA", "SEMIGROUP", "COMMUTATIVE_SEMIGROUP", "MONOID", "COMMUTATIVE_MONOID",
                 "GROUP", "COMMUTATIVE_GROUP", "RINGOID", "RING", "RING_WITH_ONE",
                 "COMMUTATIVE_RING", "INTEGRAL_RING", "GCD_RING"},
    "EUCLIDEAN_RING": {"MAGMA", "SEMIGROUP", "COMMUTATIVE_SEMIGROUP", "MONOID",
                       "COMMUTATIVE_MONOID", "GROUP", "COMMUTATIVE_GROUP", "RINGOID", "RING",
                       "RING_WITH_ONE", "COMMUTATIVE_RING", "INTEGRAL_RING", "EUCLIDEAN_RING"},
    "FACTORIZATION_RING": {"MAGMA", "SEMIGROUP", "COMMUTATIVE_SEMIGROUP", "MONOID",
                           "COMMUTATIVE_MONOID", "GROUP", "COMMUTATIVE_GROUP", "RINGOID", "RING",
                           "RING_WITH_ONE", "COMMUTATIVE_RING", "INTEGRAL_RING",
                           "FACTORIZATION_RING"},
    "UNIQUE_FACTORIZATION_RING": {"MAGMA", "SEMIGROUP", "COMMUTATIVE_SEMIGROUP", "MONOID",
                                  "COMMUTATIVE_MONOID", "GROUP", "COMMUTATIVE_GROUP", "RINGOID",
                                  "RING", "RING_WITH_ONE", "COMMUTATIVE_RING", "INTEGRAL_RING",
                                  "FACTORIZATION_RING", "UNIQUE_FACTORIZATION_RING"},
    "FIELD": {"MAGMA", "SEMIGROUP", "COMMUTATIVE_SEMIGROUP", "MONOID", "COMMUTATIVE_MONOID",
              "GROUP", "COMMUTATIVE_GROUP", "RINGOID", "RING", "RING_WITH_ONE",
              "COMMUTATIVE_RING", "INTEGRAL_RING", "FACTORIZATION_RING",
              "UNIQUE_FACTORIZATION_RING", "FIELD"},
}
PINNED_ROLES = {
    "add", "canon_unit", "div_mod", "factor", "from_int", "gcd", "identity", "inv",
    "inverse", "is_unit", "mul", "native_int", "neg", "norm", "one", "op", "power",
    "primality", "prime_split", "to_int", "unit_inv", "zero",
}
PINNED_GROUP_LIKE = {"MAGMA", "SEMIGROUP", "COMMUTATIVE_SEMIGROUP", "MONOID",
                     "COMMUTATIVE_MONOID", "CC_MONOID", "FACTORIZATION_MONOID", "GROUP",
                     "COMMUTATIVE_GROUP"}


def test_every_kind_pins_its_ancestors():
    assert set(PINNED_ANCESTORS) == {kind.name for kind in Kind}
    for kind in Kind:
        assert {k.name for k in ancestors(kind)} == PINNED_ANCESTORS[kind.name], kind


def test_the_role_list_and_the_kind_classes_are_pinned():
    assert _ROLES == PINNED_ROLES
    assert {kind.name for kind in GROUP_LIKE_KINDS} == PINNED_GROUP_LIKE
    assert RING_LIKE_KINDS == set(Kind) - GROUP_LIKE_KINDS


# ============================================================
# decisions
# ============================================================


def test_decision_truthiness():
    assert Decision.yes()
    assert not Decision.no()
    assert Decision.yes(41).evidence == 41
    assert Decision.no(("a", "b")).evidence == ("a", "b")


# ============================================================
# validation
# ============================================================


def test_validate_accepts_wellformed_instance():
    validate_instance(nat_add_monoid())


def test_validate_rejects_missing_required_op():
    inst = StructureInstance(kind=Kind.MONOID, base=nat_dset(),
                             ops={"op": lambda a, b: a + b}, name="broken")
    with pytest.raises(StructuralError):
        validate_instance(inst)


def test_validate_rejects_unknown_role():
    inst = StructureInstance(kind=Kind.MAGMA, base=nat_dset(),
                             ops={"op": lambda a, b: a + b, "frobnicate": len},
                             name="extra")
    with pytest.raises(StructuralError):
        validate_instance(inst)


def test_validate_rejects_noncallable_op():
    inst = StructureInstance(kind=Kind.MAGMA, base=nat_dset(),
                             ops={"op": 7}, name="notcallable")
    with pytest.raises(StructuralError):
        validate_instance(inst)


# each kind's required roles and its sorted law names, pinned
_SEMIGROUP_LAWS = ["associativity(op)", "congruence(op)"]
_MONOID_LAWS = _SEMIGROUP_LAWS + ["identity(op)"]
_CC_MONOID_LAWS = _MONOID_LAWS + ["cancellation-left", "cancellation-right", "commutativity(op)"]
_GROUP_LAWS = _MONOID_LAWS + ["congruence(inverse)", "inverse(op)",
                              "inverse-antihomomorphism", "inverse-uniqueness"]
_RINGOID_LAWS = ["associativity(add)", "commutativity(add)", "congruence(add)",
                 "congruence(mul)", "congruence(neg)", "identity(add)", "inverse(add)"]
_RING_LAWS = _RINGOID_LAWS + ["associativity(mul)", "distributivity-left",
                              "distributivity-right"]
_COMMUTATIVE_RING_LAWS = _RING_LAWS + ["commutativity(mul)", "identity(mul)"]
_INTEGRAL_RING_LAWS = _COMMUTATIVE_RING_LAWS + ["no-zero-divisors"]

PINNED_TOWER = {
    Kind.MAGMA: ("op", ["congruence(op)"]),
    Kind.SEMIGROUP: ("op", _SEMIGROUP_LAWS),
    Kind.COMMUTATIVE_SEMIGROUP: ("op", _SEMIGROUP_LAWS + ["commutativity(op)"]),
    Kind.MONOID: ("op identity", _MONOID_LAWS),
    Kind.COMMUTATIVE_MONOID: ("op identity", _MONOID_LAWS + ["commutativity(op)"]),
    Kind.CC_MONOID: ("op identity", _CC_MONOID_LAWS),
    Kind.FACTORIZATION_MONOID: ("op identity factor",
                                _CC_MONOID_LAWS + ["factorization-reconstructs"]),
    Kind.GROUP: ("op identity inverse", _GROUP_LAWS),
    Kind.COMMUTATIVE_GROUP: ("op identity inverse", _GROUP_LAWS + ["commutativity(op)"]),
    Kind.RINGOID: ("add neg zero mul", _RINGOID_LAWS),
    Kind.RING: ("add neg zero mul", _RING_LAWS),
    Kind.RING_WITH_ONE: ("add neg zero mul one", _RING_LAWS + ["identity(mul)"]),
    Kind.COMMUTATIVE_RING: ("add neg zero mul one", _COMMUTATIVE_RING_LAWS),
    Kind.INTEGRAL_RING: ("add neg zero mul one", _INTEGRAL_RING_LAWS),
    Kind.GCD_RING: ("add neg zero mul one gcd", _INTEGRAL_RING_LAWS),
    Kind.EUCLIDEAN_RING: ("add neg zero mul one div_mod norm",
                          _INTEGRAL_RING_LAWS + ["division-contract"]),
    Kind.FACTORIZATION_RING: ("add neg zero mul one factor",
                              _INTEGRAL_RING_LAWS + ["factorization-reconstructs"]),
    Kind.UNIQUE_FACTORIZATION_RING: ("add neg zero mul one factor",
                                     _INTEGRAL_RING_LAWS + ["factorization-reconstructs"]),
    Kind.FIELD: ("add neg zero mul one inv",
                 _INTEGRAL_RING_LAWS + ["congruence(inv)", "multiplicative-inverse"]),
}


def test_every_kind_pins_its_roles_and_laws():
    assert set(PINNED_TOWER) == set(Kind)
    for kind, (roles, laws) in PINNED_TOWER.items():
        ops = {role: lambda *args: 0 for role in roles.split()}
        inst = StructureInstance(kind, int_dset(), ops, kind.name)
        validate_instance(inst)
        for role in ops:
            lacking = {r: fn for r, fn in ops.items() if r != role}
            with pytest.raises(StructuralError):
                validate_instance(StructureInstance(kind, int_dset(), lacking))
        assert sorted(law.name for law in _laws_for(inst)) == sorted(laws), kind


def test_no_route_is_chosen_by_object_identity():
    """Fast routes are chosen by role (native_int, to_int, ...), so a
    copy of a shipped instance takes the same route as the original."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    pattern = re.compile(r"is _Z|is int_ring\(\)|is int_order\(\)")
    hits = [f"{path.relative_to(src)}:{no}: {line.strip()}"
            for path in sorted(src.rglob("*.py"))
            for no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if pattern.search(line)]
    assert hits == []


# ============================================================
# law checking
# ============================================================


def test_lawful_monoid_reports_no_failures():
    report = check_laws(nat_add_monoid(), seed=1, budget=150)
    assert report.ok
    assert report.cases > 0
    assert not report.failures


def test_reports_are_deterministic_for_fixed_parameters():
    r1 = check_laws(nat_monus_semigroup(), seed=5, budget=80, sweep=4)
    r2 = check_laws(nat_monus_semigroup(), seed=5, budget=80, sweep=4)
    assert r1.cases == r2.cases
    assert r1.failures == r2.failures


def test_monus_associativity_counterexamples_are_found_and_recheckable():
    report = check_laws(nat_monus_semigroup(), seed=1, budget=100, sweep=6)
    assoc = [case for law, case in report.failures if law == "associativity(op)"]
    assert assoc, "truncated subtraction must fail associativity"
    for case in assoc[:10]:
        assert recheck_failure(nat_monus_semigroup(), "associativity(op)", case)


def test_monus_sweep_finds_the_small_triple():
    report = check_laws(nat_monus_semigroup(), seed=3, budget=10, sweep=6)
    assert ("associativity(op)", (5, 3, 1)) in report.failures


def test_noncommutative_op_fails_commutativity():
    inst = StructureInstance(
        kind=Kind.COMMUTATIVE_SEMIGROUP, base=nat_dset(),
        ops={"op": lambda a, b: a}, name="left-projection")
    report = check_laws(inst, seed=1, budget=60, sweep=3)
    laws = {law for law, _ in report.failures}
    assert "commutativity(op)" in laws


def test_broken_identity_is_detected():
    inst = StructureInstance(
        kind=Kind.MONOID, base=nat_dset(),
        ops={"op": lambda a, b: a + b, "identity": lambda: 1}, name="bad-e")
    report = check_laws(inst, seed=1, budget=60, sweep=3)
    assert any(law == "identity(op)" for law, _ in report.failures)


def test_congruence_violation_is_detected_via_variants():
    # Representative-sensitive op over a dset whose eq ignores sign: |x| pairs
    # (2, -2) are "equal" but the op result depends on the concrete value.
    def eq(a, b):
        return Decision.yes() if abs(a) == abs(b) else Decision.no((a, b))

    d = DSet(name="abs-int", eq=eq,
             sample=lambda seed, count: [((seed + i) % 7) - 3 for i in range(count)],
             enumeration=(0, 1, -1, 2, -2, 3, -3),
             variants=lambda x: -x)
    inst = StructureInstance(kind=Kind.MAGMA, base=d,
                             ops={"op": lambda a, b: a + b}, name="abs-add")
    report = check_laws(inst, seed=1, budget=80)
    assert any(law == "congruence(op)" for law, _ in report.failures)


def test_a_carrier_whose_variants_take_x_alone_runs_through_check_laws():
    # Z/(3) on int representatives, variants(x) = x + 3 with no generator: +
    # respects eq, max does not (max(0, 1) = 1 but max(3, 1) = 3 = 0 mod 3)
    def eq(a, b):
        return Decision.yes() if (a - b) % 3 == 0 else Decision.no((a, b))

    def sample(seed, count):
        rng = random.Random(seed)
        return [below(rng, 10) for _ in range(count)]

    d = DSet("z3", eq, sample, (0, 1, 2), lambda x: x + 3)
    for op, failing in ((lambda a, b: a + b, set()), (max, {"congruence(op)"})):
        inst = StructureInstance(Kind.COMMUTATIVE_MONOID, d,
                                 {"op": op, "identity": lambda: 0}, "z3-op")
        report = check_laws(inst, seed=1, budget=50)
        assert report.cases > 0
        assert {law for law, _ in report.failures} == failing
        # a congruence case is (x, y): the law builds x's variant itself
        assert all(len(case) == 2 and recheck_failure(inst, law, case)
                   for law, case in report.failures)


def test_the_sweep_pairs_each_enumerated_element_with_its_variant():
    # Z/(3) on int representatives, variants(x) = x + 3; op is addition mod 3
    # on 0..2 but one more when an argument is 3 or above, so only a case that
    # builds a variant can see it. budget=0: the sweep alone must find it
    def eq(a, b):
        return Decision.yes() if (a - b) % 3 == 0 else Decision.no((a, b))

    def op(a, b):
        return (a + b) % 3 + (a >= 3 or b >= 3)

    d = DSet("z3", eq, lambda seed, count: [0] * count, (0, 1, 2), lambda x: x + 3)
    inst = StructureInstance(Kind.COMMUTATIVE_MONOID, d,
                             {"op": op, "identity": lambda: 0}, "z3-leaky")
    report = check_laws(inst, budget=0, sweep=3)
    assert report.failures == tuple(
        ("congruence(op)", case) for case in itertools.product((0, 1, 2), repeat=2))
    assert report.cases == 3 ** 2 + 3 ** 3 + 3 ** 2 + 3  # congruence, assoc., comm., identity


def test_recheck_failure_rejects_unknown_law_name():
    with pytest.raises(StructuralError):
        recheck_failure(nat_add_monoid(), "no-such-law", (1, 2))
    # a known law, but a case of the wrong arity
    with pytest.raises(StructuralError, match="arity"):
        recheck_failure(nat_add_monoid(), "associativity(op)", (1, 2))


def test_recheck_of_a_passing_case_returns_false():
    # (0, 0, 0) associates fine even under monus
    assert not recheck_failure(nat_monus_semigroup(), "associativity(op)", (0, 0, 0))


# n = 1..300; 2^k and 2^k +- 1 up to 2^70; 10^6, 2*10^6 + 1 and 2^64, the
# widths of the shipped samplers (2^64 draws 65-bit words)
_BELOW_WIDTHS = [*range(1, 301),
                 *sorted({2**k + d for k in range(71) for d in (-1, 0, 1)} - {0}),
                 10**6, 2 * 10**6 + 1, 2**64]


def test_below_draws_what_randrange_draws():
    # CPython's randrange(n) is _randbelow(n); a change to it fails here by
    # name, not as a shifted sample or case digest
    ours, theirs = random.Random(2024), random.Random(2024)
    for n in _BELOW_WIDTHS:
        for _ in range(3):
            assert below(ours, n) == theirs.randrange(n), n
    assert ours.getstate() == theirs.getstate()
    for n in (0, -1, -2**64):
        with pytest.raises(ValueError):
            below(ours, n)
        with pytest.raises(ValueError):
            theirs.randrange(n)
    assert ours.getstate() == theirs.getstate()


def test_the_int_stream_draws_what_randrange_draws():
    # int_dset's sample is one loop over the words that below() would draw;
    # the other int-fed carriers map its list
    generic = without_roles(int_ring(), "native_int")
    mapped = [(nat_dset(), abs), (pos_nat_dset(), lambda v: abs(v) + 1),
              (bin_dset(), lambda v: to_bin(abs(v)))]
    mapped += [(residue_ring(r, b).base, lambda v, b=b: Residue(b, v % abs(b)))
               for r in (int_ring(), generic) for b in (7, -12, 257)]
    for seed in (1, 2, 12345, 2**31 - 1):
        for count in (0, 1, 150, 1000):
            rng = random.Random(seed)
            want = [mixed_int(rng) for _ in range(count)]
            assert int_dset().sample(seed, count) == want, (seed, count)
            for dset, f in mapped:
                assert dset.sample(seed, count) == list(map(f, want)), (dset.name, seed, count)
    # check_laws with a negative budget draws an empty pool
    for dset in (int_dset(), *(d for d, _ in mapped)):
        assert dset.sample(1, -5) == [], dset.name


# ============================================================
# derived instances
# ============================================================


def test_multiplicative_monoid_of_commutative_ring():
    m = multiplicative_monoid(int_ring())
    assert m.kind is Kind.COMMUTATIVE_MONOID
    assert m.ops["op"](6, 7) == 42
    assert m.ops["identity"]() == 1
    assert check_laws(m, seed=1, budget=80).ok
    with pytest.raises(StructuralError):  # a group has no mul to take
        multiplicative_monoid(int_add_group())


@pytest.mark.parametrize("make", [int_ring, nat_monus_semigroup])
def test_every_law_gets_its_sweep_and_budget_cases(make):
    # the shared sample pool must hand each law its full budget
    inst = make()
    budget, sweep = 37, 3
    report = check_laws(inst, seed=4, budget=budget, sweep=sweep)
    assert report.cases == sum(sweep ** law.sample_arity + budget for law in _laws_for(inst))


def _row_wise_cases(inst, seed, budget, sweep):
    """Each law with its cases, assembled row by row as check_laws once did:
    the sweep, then consecutive k-tuples of the pool."""
    dset = inst.base
    laws = _laws_for(inst)
    small = dset.enumeration[:sweep] if sweep > 0 else ()
    pool = dset.sample(_law_seed(seed, "sample-pool"),
                       budget * max(law.sample_arity for law in laws))
    for law in laws:
        k = law.sample_arity
        n = max(0, min(budget, len(pool) // k))
        chunks = zip(*[iter(pool[:n * k])] * k)
        yield law, [*itertools.product(small, repeat=k), *chunks]


@pytest.mark.parametrize("short", [False, True], ids=["full-pool", "short-pool"])
@pytest.mark.parametrize("vary", [False, True], ids=["no-variants", "variants"])
def test_cases_are_assembled_as_row_wise_tuples_in_order(vary, short):
    # Z/(3) on int representatives: x - y is lawless in most ways, so failures
    # come from several laws and arities; eq and op record every call they get
    calls = []

    def eq(a, b):
        calls.append(("eq", a, b))
        return Decision.yes() if (a - b) % 3 == 0 else Decision.no((a, b))

    def sub(a, b):
        calls.append(("op", a, b))
        return a - b

    def sample(seed, count):
        rng = random.Random(seed)
        return [below(rng, 1000) for _ in range(count // 2 if short else count)]

    variants = (lambda x: x + 3 * (1 + x % 5)) if vary else None
    inst = StructureInstance(Kind.CC_MONOID, DSet("z3", eq, sample, (0, 1, 2), variants),
                             {"op": sub, "identity": lambda: 0}, "z3-sub")
    for budget in (0, 1, 7):
        for sweep in (0, 2):
            calls.clear()
            report = check_laws(inst, seed=budget + sweep, budget=budget, sweep=sweep)
            seen = calls[:]
            calls.clear()
            expected = [*_row_wise_cases(inst, budget + sweep, budget, sweep)]
            want = [(law.name, case) for law, cases in expected
                    for case in cases if not law.pred(*case)]
            assert seen == calls, (budget, sweep)  # every case, in the same order
            assert report.failures == tuple(want), (budget, sweep)
            assert report.cases == sum(len(cases) for _, cases in expected)
    assert {law for law, _ in report.failures} >= {
        "associativity(op)", "commutativity(op)", "identity(op)"}


def test_law_failure_report_counts_cases():
    report = check_laws(nat_monus_semigroup(), seed=1, budget=50, sweep=4)
    assert report.cases >= len(report.failures)
    assert report.kind is Kind.SEMIGROUP


def test_a_suite_that_checked_no_case_is_not_ok():
    report = check_laws(nat_add_monoid(), seed=1, budget=0, sweep=0)
    assert report.cases == 0 and report.failures == ()
    assert not report.ok
    assert check_laws(nat_add_monoid(), seed=1, budget=1, sweep=0).ok


# ============================================================
# the package's exports
# ============================================================


def test_star_import_binds_every_exported_name_once():
    import certalg
    namespace = {}
    exec("from certalg import *", namespace)
    assert len(certalg.__all__) == len(set(certalg.__all__))
    assert set(certalg.__all__) <= namespace.keys()
