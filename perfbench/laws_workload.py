"""laws workload: check_laws over the lawful roster plus the nat-monus
negative control, one call per instance report.

The roster is the acceptance-01 list (nat-add, nat-mul, nat-pos-mul,
int-ring, frac-field, polys over Z and Z/(7), Z/(b) for b = 2..50, Z/(p)
fields for p < 100) plus the `laws --all` instances it lacks (int-add,
int-ufd, nat-factor-monoid, bin-add). Each instance gets two reports, each
with a law seed drawn from the workload seed; every pass repeats the same
calls.
"""

from __future__ import annotations

from types import SimpleNamespace

import oracles
from harness import Job

BUDGET = 50
SEEDS_PER_INSTANCE = 2
CONTROL = dict(budget=200, sweep=6)  # as acceptance 02 runs it


def setup():
    import certalg as ca

    ring = ca.int_ring()
    roster = [
        ("numbers", ca.nat_add_monoid()),
        ("numbers", ca.nat_mul_monoid()),
        ("numbers", ca.pos_nat_mul_monoid()),
        ("euclid", ring),
        ("fractions", ca.fraction_field()),
        ("polynomials", ca.poly_group(ring)),
        ("polynomials", ca.poly_group(ca.residue_ring(ring, 7))),
    ]
    roster += [("euclid", ca.residue_ring(ring, b)) for b in range(2, 51)]
    roster += [("euclid", ca.residue_field(ring, p, ca.is_prime(p)))
               for p in range(2, 100) if oracles.is_prime(p)]
    roster += [
        ("numbers", ca.int_add_group()),
        ("factorization", ca.int_factorization_ring()),
        ("factorization", ca.pos_nat_factorization_monoid()),
        ("numbers", ca.bin_add_monoid()),
    ]
    return SimpleNamespace(ca=ca, roster=roster, control=ca.nat_monus_semigroup())


def api(tracer=None):
    from certalg import structures

    names = ("check_laws", "recheck_failure")
    if tracer is None:
        return SimpleNamespace(**{n: getattr(structures, n) for n in names})
    return SimpleNamespace(**{n: tracer.wrap(f"structures.{n}", getattr(structures, n))
                              for n in names})


def traced_ctx(ctx, tracer):
    """Rebuild every roster instance through the public DSet and
    StructureInstance constructors with its carrier callables and ops
    wrapped, totals kept per owning module."""
    ca = ctx.ca
    roster = []
    for module, inst in ctx.roster:
        base = inst.base

        def w(kind, fn, module=module):
            return None if fn is None else tracer.wrap(f"{module}.{kind}", fn, keep=False)

        dset = ca.DSet(base.name, w("eq", base.eq), w("sample", base.sample),
                       base.enumeration, w("sample", base.variants))
        ops = {role: w("ops", fn) for role, fn in inst.ops.items()}
        roster.append((module, ca.StructureInstance(inst.kind, dset, ops, inst.name)))
    return SimpleNamespace(ca=ca, roster=roster, control=ctx.control)


def make_jobs(seed, ctx):
    rng = oracles.make_rng(seed, "laws")
    jobs = [Job("laws", (i, rng.randrange(1, 2**31)))
            for i in range(len(ctx.roster)) for _ in range(SEEDS_PER_INSTANCE)]
    jobs.append(Job("control", (None, rng.randrange(1, 2**31))))
    return jobs


def execute(job, ctx, api):
    index, law_seed = job.args
    if job.family == "laws":
        report = api.check_laws(ctx.roster[index][1], seed=law_seed, budget=BUDGET)
        return report, report.cases
    report = api.check_laws(ctx.control, seed=law_seed, **CONTROL)
    refails = all(api.recheck_failure(ctx.control, law, case)
                  for law, case in report.failures)
    return (report, refails), report.cases


def _monus(a, b):
    return a - b if a >= b else 0


def check(job, out):
    if job.family == "laws":
        return None if out.ok and out.cases > 0 else "counterexample"
    report, refails = out
    if ("associativity(op)", (5, 3, 1)) not in report.failures or not refails:
        return "negative-control"
    for law, (x, y, z) in report.failures:
        if law != "associativity(op)" or \
                _monus(_monus(x, y), z) == _monus(x, _monus(y, z)):
            return "negative-control"
    return None


def exact_counts(jobs, outputs):
    reports = [out if job.family == "laws" else out[0]
               for job, out in zip(jobs, outputs)]
    return {"structures.cases": sum(r.cases for r in reports),
            "structures.failures": sum(len(r.failures) for r in reports)}
