"""Acceptance suite: fourteen end-to-end checks, one per shipped guarantee.

Each test emits a single PASS/FAIL line (repeated in the terminal summary
via conftest) and then asserts. All checks are exact; the only tolerances
are the two wall-clock budgets, which are asserted as part of their
criteria.
"""

import itertools
import json
import math
import random
import time

import certalg as ca
from certalg import cli
from certalg.certlists import append, int_order, rev, sort_certified
from certalg.eqprover import (MAT_CANDIDATES, eval_mat2, eval_nat, eval_word,
                              format_expr, parse_expr, prove_eq)
from certalg.kernel import SortResult, verify_sort_result
from certalg.numbers import power_instrumented
from cli_exprgen import random_expr
from conftest import record_line
from eq_corpus import CORPUS, add, mul, term_vars, x, y

RING = ca.int_ring()
PRIMES_UNDER_100 = [p for p in range(2, 100) if ca.is_prime(p).verdict == "prime"]


def report(number, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}"
    record_line(line)
    print(line, flush=True)
    assert ok, f"acceptance criterion {number} ({name}) failed{tail}"


# ----------------------------------------------------------------
# 1. law suites over the shipped tower, budget 500, seeds 1..3


def test_criterion_01_law_suites():
    t0 = time.perf_counter()
    roster = [
        ca.nat_add_monoid(),
        ca.nat_mul_monoid(),
        ca.pos_nat_mul_monoid(),
        ca.int_ring(),
        ca.fraction_field(),
        ca.poly_group(ca.int_ring()),
        ca.poly_group(ca.residue_ring(RING, 7)),
    ]
    roster += [ca.residue_ring(RING, b) for b in range(2, 51)]
    roster += [ca.residue_field(RING, p, ca.is_prime(p))
               for p in PRIMES_UNDER_100]
    failures = []
    cases = 0
    for inst in roster:
        for seed in (1, 2, 3):
            rep = ca.check_laws(inst, seed=seed, budget=500)
            cases += rep.cases
            if not rep.ok:
                failures.append((inst.name, seed, rep.failures[:2]))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    report(1, "law-suites", ok,
           f"{len(roster)} instances x 3 seeds, {cases} cases, {elapsed:.1f}s"
           + (f", failures={failures[:2]}" if failures else ""))


# ----------------------------------------------------------------
# 2. negative control: truncated subtraction is not associative


def test_criterion_02_negative_control():
    rep = ca.check_laws(ca.nat_monus_semigroup(), seed=1, budget=200, sweep=6)
    found = ("associativity(op)", (5, 3, 1)) in rep.failures
    ok = (not rep.ok) and found
    report(2, "monus-negative-control", ok,
           f"{len(rep.failures)} counterexamples, (5,3,1) {'found' if found else 'missing'}")


# ----------------------------------------------------------------
# 3. Bezout certificates against a brute-force gcd oracle


def _gcd_bruteforce(a, b):
    a, b = abs(a), abs(b)
    if a == 0 and b == 0:
        return 0
    top = max(a, b)
    return max(d for d in range(1, top + 1)
               if (a == 0 or a % d == 0) and (b == 0 or b % d == 0))


def test_criterion_03_bezout():
    bad = 0
    checked = 0
    for a in range(-50, 51):
        for b in range(-50, 51):
            cert = ca.extended_gcd(RING, a, b)
            checked += 1
            if cert.g != _gcd_bruteforce(a, b) or not ca.verify_bezout(RING, cert):
                bad += 1
    rng = random.Random(321)
    for _ in range(500):
        a = rng.randint(-2**63, 2**63)
        b = rng.randint(-2**63, 2**63)
        cert = ca.extended_gcd(RING, a, b)
        checked += 1
        if (cert.g != math.gcd(a, b)
                or cert.u * a + cert.v * b != cert.g
                or not ca.verify_bezout(RING, cert)):
            bad += 1
    report(3, "bezout-certificates", bad == 0, f"{checked} pairs, {bad} bad")


# ----------------------------------------------------------------
# 4. prime-split on every divisible product in range


def test_criterion_04_prime_split():
    bad = 0
    checked = 0
    for p in PRIMES_UNDER_100[:10]:
        for a in range(1, 31):
            for b in range(1, 31):
                if (a * b) % p:
                    continue
                checked += 1
                side, w = ca.prime_split(RING, p, a, b,
                                         ca.DividesWitness(p, a * b, (a * b) // p))
                if not (ca.check_divides(RING, w)
                        and w.divisor == p
                        and w.dividend == (a if side == "left" else b)):
                    bad += 1
    report(4, "prime-split", bad == 0, f"{checked} products, {bad} bad")


# ----------------------------------------------------------------
# 5. residue fields: inverses for primes, certified refusal for composites


def test_criterion_05_residue_fields():
    bad = []
    for p in PRIMES_UNDER_100:
        field = ca.residue_field(RING, p, ca.is_prime(p))
        mul_op, inv_op = field.ops["mul"], field.ops["inv"]
        one = field.ops["one"]()
        for v in range(1, p):
            r = ca.make_residue(RING, p, v)
            if mul_op(inv_op(r), r) != one:
                bad.append((p, v))
    refused = 0
    composites = [b for b in range(4, 101)
                  if ca.is_prime(b).verdict == "composite"]
    for b in composites:
        try:
            ca.residue_field(RING, b, ca.is_prime(b))
        except ca.CompositeModulusError as exc:
            w = exc.cert.witness
            if (w.dividend == b and b % w.divisor == 0
                    and 1 < w.divisor < b and w.divisor * w.quotient == b):
                refused += 1
    ok = not bad and refused == len(composites)
    report(5, "residue-fields", ok,
           f"{len(PRIMES_UNDER_100)} fields, {refused}/{len(composites)} composites refused")


# ----------------------------------------------------------------
# 6. fraction addition differential: optimized vs naive


def test_criterion_06_fraction_differential():
    canonical = {ca.mk_fraction(RING, n, d)
                 for n in range(-20, 21) for d in range(-20, 21) if d}
    canonical = sorted(canonical, key=lambda f: (f.num, f.den))
    bad = 0
    for f1 in canonical:
        for f2 in canonical:
            fast = ca.add_optimized(RING, f1, f2)
            if fast != ca.add_naive(RING, f1, f2) or not ca.is_canonical(RING, fast):
                bad += 1
    rng = random.Random(99)
    randoms = 0
    for _ in range(1000):
        f1 = ca.mk_fraction(RING, rng.randint(-2**63, 2**63),
                            rng.randint(1, 2**63))
        f2 = ca.mk_fraction(RING, rng.randint(-2**63, 2**63),
                            rng.randint(1, 2**63))
        fast = ca.add_optimized(RING, f1, f2)
        if fast != ca.add_naive(RING, f1, f2) or not ca.is_canonical(RING, fast):
            bad += 1
        randoms += 1
    report(6, "fraction-differential", bad == 0,
           f"{len(canonical)}^2 canonical pairs + {randoms} random, {bad} bad")


# ----------------------------------------------------------------
# 7. polynomial addition differential against a dense-array oracle


def test_criterion_07_polynomial_differential():
    rng = random.Random(7)
    bad = 0
    for _ in range(500):
        raw1 = [(rng.randint(-9, 9), rng.randint(0, 12))
                for _ in range(rng.randint(0, 13))]
        raw2 = [(rng.randint(-9, 9), rng.randint(0, 12))
                for _ in range(rng.randint(0, 13))]
        got = [(c, e) for c, e in
               ca.poly_add(ca.mk_poly(RING, raw1), ca.mk_poly(RING, raw2)).terms]
        arr = [0] * 13
        for c, e in raw1 + raw2:
            arr[e] += c
        want = [(c, e) for e, c in sorted(enumerate(arr), reverse=True) if c]
        if got != want:
            bad += 1
    laws_ok = ca.check_laws(ca.poly_group(RING), seed=1, budget=300).ok
    report(7, "polynomial-differential", bad == 0 and laws_ok,
           f"500 pairs, {bad} bad, group laws {'ok' if laws_ok else 'FAIL'}")


# ----------------------------------------------------------------
# 8. certified sorting with forged-certificate rejection


def test_criterion_08_certified_sort():
    rng = random.Random(8)
    bad = 0
    for _ in range(1000):
        n = rng.randint(0, 200)
        xs = [rng.randint(-30, 30) for _ in range(n)]  # duplicates guaranteed
        res = sort_certified(int_order(), xs)
        if list(res.ys) != sorted(xs) or not verify_sort_result(int_order(), xs, res):
            bad += 1

    stable_ok = True
    for xs in ([2, 1, 2, 1], [1, 1, 1], [3, 3, 2, 2, 1, 1]):
        res = sort_certified(int_order(), xs)
        seen = {}
        for i, v in enumerate(xs):
            for j in seen.get(v, []):
                # equal elements keep input order in the output
                if res.perm[j] > res.perm[i]:
                    stable_ok = False
            seen.setdefault(v, []).append(i)

    xs = [5, 3, 9, 1]
    good = sort_certified(int_order(), xs)
    forged = [
        SortResult((1, 3, 5, 8), good.ord_cert, good.perm),
        SortResult(good.ys, good.ord_cert, (0, 0, 2, 3)),
        SortResult(good.ys, good.ord_cert, (0, 1, 2, 3)),
        SortResult((9, 5, 3, 1), good.ord_cert, (1, 2, 0, 3)),
        SortResult(good.ys, good.ord_cert[:-1], good.perm),
    ]
    rejected = sum(not verify_sort_result(int_order(), xs, f) for f in forged)
    ok = bad == 0 and stable_ok and rejected == len(forged)
    report(8, "certified-sort", ok,
           f"1000 lists, {bad} bad, stability {'ok' if stable_ok else 'FAIL'}, "
           f"{rejected}/{len(forged)} forgeries rejected")


# ----------------------------------------------------------------
# 9. list lemmas, exhaustive to length 12 over three symbols
#
# One module-rev call per list; the length-preserving table then answers
# rev(rev(xs)) by lookup, and every split zs = xs ++ ys of every
# enumerated list checks the rev-append lemma, which covers all pairs
# with combined length <= 12.


def test_criterion_09_list_lemmas():
    t0 = time.perf_counter()
    symbols = ("a", "b", "c")
    table = {(): ()}
    for n in range(1, 13):
        for t in itertools.product(symbols, repeat=n):
            table[t] = tuple(rev(list(t)))
    total = len(table)

    revrev_bad = sum(table[r] != t for t, r in table.items())

    revapp_bad = 0
    for t, r in table.items():
        for k in range(len(t) + 1):
            if table[t[k:]] + table[t[:k]] != r:
                revapp_bad += 1

    rng = random.Random(9)
    random_bad = 0
    for _ in range(500):
        xs = [rng.randint(0, 9) for _ in range(rng.randint(0, 100))]
        ys = [rng.randint(0, 9) for _ in range(rng.randint(0, 100))]
        if rev(rev(xs)) != xs or rev(append(xs, ys)) != append(rev(ys), rev(xs)):
            random_bad += 1
    elapsed = time.perf_counter() - t0
    ok = (revrev_bad == 0 and revapp_bad == 0 and random_bad == 0
          and elapsed < 30.0)
    report(9, "list-lemmas", ok,
           f"{total} lists, {elapsed:.1f}s, bad={revrev_bad}+{revapp_bad}+{random_bad}")


# ----------------------------------------------------------------
# 10. equational prover corpus with soundness and refuter validation


def _has_refuter(theory, lhs, rhs):
    names = sorted(term_vars(lhs) | term_vars(rhs))
    if theory == "monoid":
        pool = [(), ("a",), ("b",), ("a", "a"), ("a", "b")]
        evaluate = eval_word
    elif theory == "commsemiring":
        pool = list(range(4))
        evaluate = eval_nat
    else:
        pool = list(MAT_CANDIDATES)
        evaluate = eval_mat2
    for combo in itertools.product(pool, repeat=len(names)):
        env = dict(zip(names, combo))
        if evaluate(lhs, env) != evaluate(rhs, env):
            return True
    return False


def test_criterion_10_equational_provers():
    assert len(CORPUS) >= 60
    misclassified = []
    unsound = []
    unrefuted = []
    rng = random.Random(10)
    word_pool = [(), ("a",), ("b",), ("a", "b"), ("b", "a", "b")]
    for theory, lhs, rhs, expected in CORPUS:
        verdict = prove_eq(theory, lhs, rhs).holds
        if verdict != expected:
            misclassified.append((theory, lhs, rhs))
            continue
        names = sorted(term_vars(lhs) | term_vars(rhs))
        if verdict:
            for _ in range(30):
                if theory == "monoid":
                    env = {n: rng.choice(word_pool) for n in names}
                    same = eval_word(lhs, env) == eval_word(rhs, env)
                elif theory == "commsemiring":
                    env = {n: rng.randrange(8) for n in names}
                    same = eval_nat(lhs, env) == eval_nat(rhs, env)
                else:
                    env = {n: rng.choice(MAT_CANDIDATES) for n in names}
                    same = eval_mat2(lhs, env) == eval_mat2(rhs, env)
                if not same:
                    unsound.append((theory, lhs, rhs))
                    break
        else:
            if not _has_refuter(theory, lhs, rhs):
                unrefuted.append((theory, lhs, rhs))

    # the four pinned verdicts
    pinned = (
        prove_eq("monoid", mul(mul(x, y), mul(x, x)),
                 mul(x, mul(y, mul(x, x)))).holds
        and not prove_eq("monoid", mul(x, y), mul(y, x)).holds
        and prove_eq("commsemiring", mul(x, add(y, x)),
                     add(mul(x, y), mul(x, x))).holds
        and prove_eq("commsemiring", mul(x, y), mul(y, x)).holds
        and not prove_eq("semiring", mul(x, y), mul(y, x)).holds
    )
    ok = not misclassified and not unsound and not unrefuted and pinned
    report(10, "equational-provers", ok,
           f"{len(CORPUS)} equations, {len(misclassified)} misclassified, "
           f"{len(unsound)} unsound, {len(unrefuted)} unrefuted")


# ----------------------------------------------------------------
# 11. binary powering against the iterated oracle


def test_criterion_11_binary_powering():
    z7 = ca.residue_ring(RING, 7)
    monoids = [
        (ca.nat_mul_monoid(), 3),
        (ca.int_add_group(), -6),
        (ca.multiplicative_monoid(z7), ca.make_residue(RING, 7, 3)),
    ]
    bad = 0
    for monoid, base in monoids:
        op = monoid.ops["op"]
        acc = monoid.ops["identity"]()
        for n in range(0, 65):
            if ca.power(monoid, base, n) != acc:
                bad += 1
            acc = op(acc, base)
    count_ok = all(
        power_instrumented(ca.nat_mul_monoid(), 2, n)[1] == n.bit_length() - 1
        for n in range(1, 65))
    report(11, "binary-powering", bad == 0 and count_ok,
           f"3 monoids x 65 exponents, {bad} bad, squaring counts "
           f"{'ok' if count_ok else 'FAIL'}")


# ----------------------------------------------------------------
# 12. binary coding round trips and the successor homomorphism


def test_criterion_12_bin_coding():
    bad = 0
    for n in range(0, 10_001):
        bits = ca.to_bin(n)
        if ca.from_bin(bits) != n or ca.bin_suc(bits) != ca.to_bin(n + 1):
            bad += 1
    rng = random.Random(12)
    for _ in range(100):
        n = rng.getrandbits(256)
        bits = ca.to_bin(n)
        if ca.from_bin(bits) != n or ca.bin_suc(bits) != ca.to_bin(n + 1):
            bad += 1
    report(12, "bin-coding", bad == 0, f"10101 values, {bad} bad")


# ----------------------------------------------------------------
# 13. factorization reconstruction and sampled uniqueness


def test_criterion_13_factorization():
    bad = sum(ca.product_of(ca.factor(n)) != n for n in range(2, 10_001))
    rep_int = ca.check_unique_sampled(ca.int_factorization_ring(),
                                      seed=1, budget=300)
    rep_nat = ca.check_unique_sampled(ca.pos_nat_factorization_monoid(),
                                      seed=1, budget=300)
    ok = bad == 0 and rep_int.ok and rep_nat.ok
    report(13, "factorization", ok,
           f"9999 reconstructions, {bad} bad; uniqueness "
           f"{len(rep_int.failures)}+{len(rep_nat.failures)} failures")


# ----------------------------------------------------------------
# 14. CLI round trips, smoke run, and the exit-code table


def test_criterion_14_cli():
    trips_bad = 0
    for mode in ("int", "frac", "poly", "term"):
        rng = random.Random(sum(map(ord, mode)) + 14)
        for _ in range(500):
            tree = random_expr(rng, mode, 4)
            if parse_expr(format_expr(tree), mode) != tree:
                trips_bad += 1

    smoke_code, _ = cli.run(cli.parse_command(
        ["laws", "nat-add", "int-ring", "--budget", "80"]))

    fixtures = [
        (["factor", "60"], 0),
        (["frac", "1 +"], 2),
        (["frac", "1/0"], 3),
        (["residue", "-m", "6", "--field", "1/3"], 4),
        (["laws", "nat-monus", "--budget", "60"], 5),
        (["prove", "--theory", "monoid", "x+y = x"], 6),
        (["isprime", "1"], 7),
    ]
    exit_bad = []
    for argv, want in fixtures:
        try:
            code, _ = cli.run(cli.parse_command(argv))
        except ca.ParseError:
            code = 2
        if code != want:
            exit_bad.append((argv, want, code))

    json_ok = json.loads(cli.run(cli.parse_command(
        ["egcd", "12", "8", "--json"]))[1])["g"] == 4

    ok = trips_bad == 0 and smoke_code == 0 and not exit_bad and json_ok
    report(14, "cli", ok,
           f"2000 round trips ({trips_bad} bad), smoke exit {smoke_code}, "
           f"exit codes {'ok' if not exit_bad else exit_bad}")
