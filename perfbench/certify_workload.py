"""certify workload: a seeded, fixed list of jobs in eight families, each the
compute call plus the library's own verifier where one exists.

The seed picks the values; sizes, shapes and counts are fixed, so every
seed gives a pass of the same shape. Values are drawn near the top of each
bit range so that trial-division cost varies little between seeds. Inputs
reach certalg as plain ints or as certalg records built field by field;
no certalg computation runs while inputs are generated. Inputs stop at 40
bits: an in-process call cannot be cut off at a deadline, and 61-bit
primes do not finish under trial division.
"""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import oracles
from harness import Job

EGCD_BITS = (16, 64, 256)
EGCD_PER_SIZE = 600
PRIMALITY_PRIMES = {16: 8, 24: 6, 32: 4, 36: 2, 40: 2}
PRIMALITY_SEMIPRIMES = {24: 4, 32: 4, 40: 2}
FACTOR_PRIMES = {16: 6, 24: 4, 32: 3, 36: 1, 40: 1}
FACTOR_SEMIPRIMES = {24: 3, 32: 3, 40: 2}
FRAC_BITS = (8, 16, 32, 64)
FRAC_CHAINS = 600
FRAC_STEPS = 12
POLY_ADD = {10: 3, 100: 3, 500: 3, 2000: 3}
POLY_MUL = {10: 4, 30: 3, 100: 2, 300: 1}
SORT_INT = {10: 4, 100: 2, 1000: 1}
SORT_BIG = 10_000
SORT_FRAC = (1000, 2)
PROVE_DEPTHS = range(3, 9)
PROVE_REPS = 40
PROVE_POWERS = (4, 6, 8, 10, 12)
POW_PER_MONOID = 60
ZMOD = (97, 1009, 9973)
THEORIES = ("monoid", "semiring", "commsemiring")

CALLS = {
    "euclid": ("extended_gcd", "verify_bezout", "is_prime", "verify_primality"),
    "factorization": ("factor", "check_factorization"),
    "fractions": ("add_optimized", "mul_fractions", "neg_fraction", "inverse",
                  "is_canonical"),
    "polynomials": ("poly_add", "poly_mul"),
    "certlists": ("sort_certified", "verify_sort_result"),
}


def setup():
    import certalg as ca
    from certalg import certlists

    ring = ca.int_ring()
    return _ctx(ca, ring, certlists.int_order(), certlists.fraction_order())


def _ctx(ca, ring, int_order, frac_order):
    monoids = {"nat-mul": ca.nat_mul_monoid(), "int-add": ca.int_add_group(),
               "bin-add": ca.bin_add_monoid()}
    monoids.update({f"zmod{m}": ca.multiplicative_monoid(ca.residue_ring(ring, m))
                    for m in ZMOD})
    return SimpleNamespace(ca=ca, ring=ring, z7=ca.residue_ring(ring, 7),
                           monoids=monoids,
                           orders={"int": int_order, "frac": frac_order})


def traced_ctx(ctx, tracer):
    """Same instances, rebuilt over an int ring whose div_mod is counted and
    with orders whose leq is counted."""
    ca = ctx.ca
    ops = dict(ctx.ring.ops)
    ops["div_mod"] = tracer.counted("euclid.div_mod.calls", ops["div_mod"])
    ring = ca.StructureInstance(ctx.ring.kind, ctx.ring.base, ops, ctx.ring.name)
    orders = {k: ca.DecTotalOrder(o.base, tracer.counted("certlists.leq.calls", o.leq))
              for k, o in ctx.orders.items()}
    return _ctx(ca, ring, orders["int"], orders["frac"])


def api(tracer=None):
    import importlib

    from certalg import eqprover, numbers

    def w(name, fn):
        return fn if tracer is None else tracer.wrap(name, fn)

    calls = {fn: w(f"{mod}.{fn}", getattr(importlib.import_module(f"certalg.{mod}"), fn))
             for mod, fns in CALLS.items() for fn in fns}
    by_theory = {t: w(f"eqprover.prove_eq.{t}", eqprover.prove_eq) for t in THEORIES}
    calls["prove_eq"] = lambda theory, lhs, rhs: by_theory[theory](theory, lhs, rhs)
    calls["power_instrumented"] = w("numbers.power", numbers.power_instrumented)
    return SimpleNamespace(**calls)


# ---------------------------------------------------------------------------
# input generation


def _near_top(rng, bits):
    return rng.randrange(2**bits - 2**(bits - 4), 2**bits)


def _prime_near_top(rng, bits):
    while True:
        n = _near_top(rng, bits)
        while n < 2**bits and not oracles.is_prime(n):
            n += 1
        if n < 2**bits:
            return n


def _next_prime(n):
    n += 1
    while not oracles.is_prime(n):
        n += 1
    return n


def _semiprime(rng, bits):
    p = _prime_near_top(rng, bits // 2)
    return p * _next_prime(p)


def _number_mix(rng, primes, semiprimes):
    out = [_prime_near_top(rng, b) for b, k in primes.items() for _ in range(k)]
    out += [_semiprime(rng, b) for b, k in semiprimes.items() for _ in range(k)]
    out += [2 * rng.getrandbits(rng.randint(15, 39)) + 2 for _ in range(6)]
    out += [rng.choice((3, 5, 7, 11, 13)) * _near_top(rng, rng.randint(14, 36))
            for _ in range(6)]
    return out


def _egcd_jobs(rng):
    jobs = []
    for bits in EGCD_BITS:
        x = _near_top(rng, bits)
        pairs = [(0, x), (x, 0), (x, x), (-x, x), (x * rng.randint(2, 9), -x), (0, 0)]
        while len(pairs) < EGCD_PER_SIZE:
            pairs.append((rng.choice((1, -1)) * rng.getrandbits(bits),
                          rng.choice((1, -1)) * rng.getrandbits(bits)))
        jobs += [Job("egcd", p) for p in pairs]
    return jobs


def _smooth(rng):
    n = 1
    for p in (2, 3, 5, 7, 11, 13):
        n *= p ** rng.randint(0, 12)
    return n if n > 1 else 2**20


def _factor_jobs(rng):
    ns = _number_mix(rng, FACTOR_PRIMES, FACTOR_SEMIPRIMES)
    ns += [_smooth(rng) for _ in range(8)]
    return [Job("factor", (-n if i % 3 == 0 else n,)) for i, n in enumerate(ns)]


def _random_fraction(rng, bits):
    den = rng.getrandbits(bits) or 1
    return Fraction(rng.choice((1, -1)) * rng.getrandbits(bits), den)


def _frac_jobs(rng, ca):
    jobs = []
    for bits in FRAC_BITS:
        for _ in range(FRAC_CHAINS):
            start = _random_fraction(rng, bits)
            acc, steps = start, []
            for _ in range(FRAC_STEPS):
                op = rng.choice(("add", "add", "mul", "mul", "neg", "inv"))
                if op == "inv" and acc == 0:
                    op = "neg"
                arg = _random_fraction(rng, bits) if op in ("add", "mul") else None
                steps.append((op, arg))
                acc = oracles.eval_chain(acc, [(op, arg)])
            lib = lambda f: ca.Fraction(f.numerator, f.denominator)
            lib_steps = tuple((op, None if a is None else lib(a)) for op, a in steps)
            jobs.append(Job("frac", (lib(start), lib_steps), expect=acc))
    return jobs


def _random_poly(rng, n, modulus):
    exps = sorted(rng.sample(range(3 * n), n), reverse=True)
    if modulus is None:
        coeffs = [rng.choice((1, -1)) * rng.randint(1, 99) for _ in exps]
    else:
        coeffs = [rng.randint(1, modulus - 1) for _ in exps]
    return dict(zip(exps, coeffs))


def _poly_jobs(rng, ctx):
    jobs = []
    for ring, modulus in ((ctx.ring, None), (ctx.z7, 7)):
        def lib(d):
            wrap = (lambda c: c) if modulus is None else (lambda c: ctx.ca.Residue(7, c))
            return ctx.ca.Poly(ring, tuple((wrap(c), e) for c, e in oracles.poly_terms(d)))

        for op, sizes, oracle in (("add", POLY_ADD, oracles.poly_add),
                                  ("mul", POLY_MUL, oracles.poly_mul)):
            for n, count in sizes.items():
                for _ in range(count):
                    p, q = _random_poly(rng, n, modulus), _random_poly(rng, n, modulus)
                    jobs.append(Job("poly", (op, lib(p), lib(q)),
                                    expect=oracles.poly_terms(oracle(p, q, modulus))))
    return jobs


def _int_list(rng, n, shape, many_dups):
    xs = [rng.randint(0, 9) if many_dups else rng.randint(-10**6, 10**6)
          for _ in range(n)]
    if shape == "presorted":
        xs.sort()
    elif shape == "reversed":
        xs.sort(reverse=True)
    return xs


def _sort_jobs(rng, ca):
    lists = [_int_list(rng, SORT_BIG, "random", False)]
    for n, count in SORT_INT.items():
        for shape in ("random", "presorted", "reversed"):
            for many_dups in (False, True):
                lists += [_int_list(rng, n, shape, many_dups) for _ in range(count)]
    jobs = [Job("sort", ("int", xs), expect=oracles.sort_oracle(xs)) for xs in lists]
    n, count = SORT_FRAC
    for _ in range(count):
        fs = [Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000)) for _ in range(n)]
        xs = [ca.Fraction(f.numerator, f.denominator) for f in fs]
        ys, perm = oracles.sort_oracle(fs)
        expect = (tuple(ca.Fraction(f.numerator, f.denominator) for f in ys), perm)
        jobs.append(Job("sort", ("frac", xs), expect=expect))
    return jobs


def _to_term(ca, t):
    tag = t[0]
    if tag == "v":
        return ca.Var(t[1])
    if tag == "n":
        return ca.NatConst(t[1])
    if tag == "e":
        return ca.UnitConst()
    return ca.Apply(tag, _to_term(ca, t[1]), _to_term(ca, t[2]))


def prove_pairs(rng, theory, depth, names=("x", "y", "z")):
    """One YES pair (rewritten by axioms) and one NO pair (perturbed, with a
    refutation found by the benchmark's evaluator) around a random term."""
    t = oracles.random_term(theory, depth, list(names), rng)
    yes = oracles.rewrite(theory, t, 3, rng)
    for _ in range(20):
        no = oracles.perturb(theory, oracles.rewrite(theory, t, 2, rng), list(names), rng)
        if oracles.find_refutation(theory, t, no, rng):
            break
    else:
        # never equal to t: t*x is a longer word, and t+1 exceeds t in
        # both semiring models
        no = ("*", t, ("v", names[0])) if theory == "monoid" else ("+", t, ("n", 1))
    return [(t, yes, True), (t, no, False)]


def _prove_jobs(rng, ca):
    triples = []
    for theory in THEORIES:
        for depth in PROVE_DEPTHS:
            for _ in range(PROVE_REPS):
                triples += [(theory, *pair) for pair in prove_pairs(rng, theory, depth)]
    for n in PROVE_POWERS:
        prod, expansion = oracles.binomial_power(n)
        triples += [("semiring", prod, oracles.right_nested_power(n), True),
                    ("semiring", prod, expansion, False),
                    ("commsemiring", prod, expansion, True),
                    ("commsemiring", prod, ("+", expansion, ("n", 1)), False)]
    return [Job("prove", (th, _to_term(ca, l), _to_term(ca, r)), expect=v)
            for th, l, r, v in triples]


def _pow_jobs(rng, ca):
    jobs = []
    for _ in range(POW_PER_MONOID):
        b = rng.randint(2, 20)
        jobs.append(Job("pow", ("nat-mul", b, rng.randint(0, 1000)), expect=("nat-mul", b, None)))
        b = rng.choice((1, -1)) * rng.getrandbits(40)
        jobs.append(Job("pow", ("int-add", b, rng.getrandbits(64)), expect=("int-add", b, None)))
        b = rng.getrandbits(20)
        bits = [(b >> i) & 1 for i in range(b.bit_length())]
        jobs.append(Job("pow", ("bin-add", bits, rng.getrandbits(64)), expect=("bin-add", b, None)))
        m = rng.choice(ZMOD)
        b = rng.randrange(m)
        jobs.append(Job("pow", (f"zmod{m}", ca.Residue(m, b), rng.getrandbits(64)),
                        expect=("zmod", b, m)))
    return jobs


def make_jobs(seed, ctx):
    ca = ctx.ca
    rng = oracles.make_rng
    return (_egcd_jobs(rng(seed, "egcd"))
            + [Job("primality", (n,)) for n in _number_mix(
                rng(seed, "primality"), PRIMALITY_PRIMES, PRIMALITY_SEMIPRIMES)]
            + _factor_jobs(rng(seed, "factor"))
            + _frac_jobs(rng(seed, "frac"), ca)
            + _poly_jobs(rng(seed, "poly"), ctx)
            + _sort_jobs(rng(seed, "sort"), ca)
            + _prove_jobs(rng(seed, "prove"), ca)
            + _pow_jobs(rng(seed, "pow"), ca))


# ---------------------------------------------------------------------------
# execution and checks


def _run_frac(ctx, api, start, steps):
    ring, acc = ctx.ring, start
    for op, arg in steps:
        if op == "add":
            acc = api.add_optimized(ring, acc, arg)
        elif op == "mul":
            acc = api.mul_fractions(ring, acc, arg)
        elif op == "neg":
            acc = api.neg_fraction(ring, acc)
        else:
            acc = api.inverse(ring, acc)
    return acc, api.is_canonical(ring, acc)


def _run_egcd(ctx, api, a, b):
    cert = api.extended_gcd(ctx.ring, a, b)
    return cert, api.verify_bezout(ctx.ring, cert)


def _run_sort(ctx, api, order, xs):
    dto = ctx.orders[order]
    result = api.sort_certified(dto, xs)
    return result, api.verify_sort_result(dto, xs, result)


def _run_primality(ctx, api, n):
    cert = api.is_prime(n)
    return cert, api.verify_primality(cert)


def _run_factor(ctx, api, n):
    data = api.factor(n)
    return data, api.check_factorization(data, n)


def _run_poly(ctx, api, op, p, q):
    return (api.poly_add if op == "add" else api.poly_mul)(p, q)


def _run_prove(ctx, api, theory, lhs, rhs):
    return api.prove_eq(theory, lhs, rhs)


def _run_pow(ctx, api, key, base, n):
    return api.power_instrumented(ctx.monoids[key], base, n)


RUN = {"egcd": _run_egcd, "primality": _run_primality, "factor": _run_factor,
       "frac": _run_frac, "poly": _run_poly, "sort": _run_sort,
       "prove": _run_prove, "pow": _run_pow}


def execute(job, ctx, api):
    return RUN[job.family](ctx, api, *job.args), 1


def _check(job, out):
    fam = job.family
    if fam == "egcd":
        cert, ok = out
        a, b = job.args
        return ok and (cert.a, cert.b) == (a, b) and oracles.bezout_ok(
            a, b, cert.g, cert.u, cert.v, cert.qa, cert.qb)
    if fam == "primality":
        cert, ok = out
        w = cert.witness
        return ok and cert.subject == job.args[0] and oracles.primality_ok(
            cert.subject, cert.verdict, w and w.divisor, w and w.quotient)
    if fam == "factor":
        data, ok = out
        pairs = [(e.prime, e.multiplicity) for e in data.entries]
        return ok and oracles.factorization_ok(job.args[0], data.unit, pairs) and all(
            e.cert.subject == e.prime and e.cert.verdict == "prime" for e in data.entries)
    if fam == "frac":
        value, ok = out
        return ok and oracles.fraction_ok(job.expect, value.num, value.den)
    if fam == "poly":
        return tuple((getattr(c, "value", c), e) for c, e in out.terms) == job.expect
    if fam == "sort":
        result, ok = out
        return ok and (result.ys, result.perm) == job.expect
    if fam == "prove":
        return out.holds == job.expect
    value, squarings, _ = out
    kind, base, modulus = job.expect
    if kind == "bin-add":
        value = oracles.bits_to_int(value)
    elif kind == "zmod":
        if value.modulus != modulus:
            return False
        value = value.value
    return oracles.power_ok(kind, base, job.args[2], value, squarings, modulus)


def check(job, out):
    return None if _check(job, out) else "oracle"


def exact_counts(jobs, outputs):
    return {"numbers.squarings": sum(out[1] for job, out in zip(jobs, outputs)
                                     if job.family == "pow")}
