"""cli workload: one child at a time, each `python -m certalg.cli <argv> --json`
with PYTHONPATH=src (the package is not installed).

A pass is a seeded mix of 60 calls: five small calls for each of the ten
subcommands, the five documented error paths, and once each the known
defects, judged against their documented exit codes. Every call has the
same deadline; a call that passes it is killed and counts as a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace

import harness
import oracles
from harness import Job

DEADLINE = 1.0
PER_SUBCOMMAND = 5
SUBCOMMANDS = ("laws", "factor", "egcd", "isprime", "residue", "frac", "poly",
               "sort", "pow", "prove")
LAWFUL = ("nat-add", "nat-mul", "nat-pos-mul", "int-add", "int-ring", "int-ufd",
          "nat-factor-monoid", "bin-add", "frac-field", "poly-int-add",
          "poly-zmod7-add", "zmod6-ring", "zmod12-ring", "zmod7-field",
          "zmod97-field")
ERROR_PATHS = (
    (("frac", "1 +"), 2),
    (("frac", "1/0"), 3),
    (("residue", "-m", "12", "--field", "1/5"), 4),
    (("laws", "nat-monus", "--budget", "60"), 5),
    (("isprime", "1"), 7),
)


def setup():
    from certalg import cli

    return SimpleNamespace(cli=cli)


def traced_ctx(ctx, tracer):
    return ctx


def _spawn(argv, stdin_text):
    return harness.run_child([sys.executable, "-m", "certalg.cli", *argv, "--json"],
                             DEADLINE, stdin_text)


def api(tracer=None):
    if tracer is None:
        return SimpleNamespace(**{s: _spawn for s in SUBCOMMANDS})
    return SimpleNamespace(**{s: tracer.wrap(f"cli.{s}", _spawn) for s in SUBCOMMANDS})


# ---------------------------------------------------------------------------
# expressions: the benchmark's own trees, text and evaluation


def _expr(rng, depth, ops, leaf):
    if depth == 0 or rng.random() < 0.3:
        return leaf(rng)
    if rng.random() < 0.15:
        return ("neg", _expr(rng, depth - 1, ops, leaf))
    return (rng.choice(ops), _expr(rng, depth - 1, ops, leaf),
            _expr(rng, depth - 1, ops, leaf))


def _text(e):
    tag = e[0]
    if tag == "num":
        return str(e[1])
    if tag == "x":
        return "x" if e[1] == 1 else f"x^{e[1]}"
    if tag == "neg":
        return f"-({_text(e[1])})"
    return f"({_text(e[1])} {tag} {_text(e[2])})"


def _eval(e, leaf, add, neg, mul, div=None):
    tag = e[0]
    if tag in ("num", "x"):
        return leaf(e)
    if tag == "neg":
        return neg(_eval(e[1], leaf, add, neg, mul, div))
    left = _eval(e[1], leaf, add, neg, mul, div)
    right = _eval(e[2], leaf, add, neg, mul, div)
    if tag == "+":
        return add(left, right)
    if tag == "-":
        return add(left, neg(right))
    if tag == "*":
        return mul(left, right)
    return div(left, right)


def _num_leaf(rng):
    return ("num", rng.randint(0, 20))


def _poly_leaf(rng):
    return ("num", rng.randint(0, 9)) if rng.random() < 0.5 else ("x", rng.randint(0, 4))


def _frac_value(e):
    return _eval(e, lambda l: Fraction(l[1]), lambda a, b: a + b, lambda a: -a,
                 lambda a, b: a * b, lambda a, b: a / b)


def _mod_div(a, b, m):
    if b % m == 0:
        raise ZeroDivisionError("division by zero residue")
    return a * pow(b, -1, m) % m


def _mod_value(e, m):
    return _eval(e, lambda l: l[1] % m, lambda a, b: (a + b) % m, lambda a: -a % m,
                 lambda a, b: a * b % m, lambda a, b: _mod_div(a, b, m))


def _poly_value(e):
    def leaf(l):
        return {0: l[1]} if l[0] == "num" and l[1] else {} if l[0] == "num" else {l[1]: 1}

    return _eval(e, leaf, oracles.poly_add, lambda p: {k: -c for k, c in p.items()},
                 oracles.poly_mul)


def _parse_poly_text(text):
    """Inverse of the CLI's poly text: '-3*x^5 + x^2 - 1' -> {5: -3, 2: 1, 0: -1}."""
    if text == "0":
        return {}
    toks = text.split(" ")
    pairs = [("-", toks[0][1:]) if toks[0].startswith("-") else ("+", toks[0])]
    pairs += list(zip(toks[1::2], toks[2::2]))
    out = {}
    for sign, body in pairs:
        coeff, _, power = body.partition("*") if "*" in body else (
            ("1", "", body) if body.startswith("x") else (body, "", ""))
        exp = 0 if not power else 1 if power == "x" else int(power[2:])
        out[exp] = (-1 if sign == "-" else 1) * int(coeff)
    return out


# ---------------------------------------------------------------------------
# the call mix


def _retry(rng, make):
    """Draw until an input avoids division by zero (an error path of its own)."""
    while True:
        try:
            return make(rng)
        except ZeroDivisionError:
            continue


def _call(rng, sub, prove_pairs):
    if sub == "laws":
        names = rng.sample(LAWFUL, 2)
        argv = ("laws", *names, "--budget", "20", "--seed", str(rng.randrange(1, 10**6)))
        return argv, None, names
    if sub == "factor":
        n = rng.choice((1, -1)) * rng.randint(2, 10**7)
        return ("factor", str(n)), None, n
    if sub == "egcd":
        a, b = (rng.choice((1, -1)) * rng.getrandbits(40) for _ in range(2))
        return ("egcd", str(a), str(b)), None, (a, b)
    if sub == "isprime":
        n = rng.randint(2, 10**6)
        return ("isprime", str(n)), None, n
    if sub == "residue":
        if rng.random() < 0.5:
            m = rng.randint(2, 50)
            e = _expr(rng, 3, "+-*", _num_leaf)
            return ("residue", "-m", str(m), f"({_text(e)})"), None, _mod_value(e, m)
        p = rng.choice((5, 7, 11, 13, 31, 97))
        e, v = _retry(rng, lambda r: _value_pair(r, "+-*/", lambda e: _mod_value(e, p)))
        return ("residue", "-m", str(p), "--field", f"({_text(e)})"), None, v
    if sub == "frac":
        e, v = _retry(rng, lambda r: _value_pair(r, "+-*/", _frac_value))
        return ("frac", f"({_text(e)})"), None, (v.numerator, v.denominator)
    if sub == "poly":
        e = _expr(rng, 3, "+-*", _poly_leaf)
        return ("poly", f"({_text(e)})"), None, _poly_value(e)
    if sub == "sort":
        n = rng.randint(1, 12)
        if rng.random() < 0.5:
            xs = [rng.randint(-50, 50) for _ in range(n)]
            return ("sort", *map(str, xs)), None, oracles.sort_oracle(xs)
        fs = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n)]
        text = " ".join(f"{f.numerator}/{f.denominator}" for f in fs)
        return ("sort", "--order", "frac"), text, oracles.sort_oracle(fs)
    if sub == "pow":
        kind = rng.choice(("nat-add", "nat-mul", "int-add", "zmod"))
        n = rng.randint(0, 200) if kind == "nat-mul" else rng.getrandbits(40)
        if kind == "zmod":
            m = rng.randint(2, 50)
            b = rng.randint(0, 10**6)
            return ("pow", f"zmod{m}-mul", str(b), str(n)), None, {"value": pow(b, n, m), "modulus": m}
        b = rng.randint(0, 9) if kind == "nat-mul" else rng.randint(0, 1000)
        if kind == "int-add":
            b = rng.choice((1, -1)) * b
        return ("pow", kind, str(b), str(n)), None, b ** n if kind == "nat-mul" else b * n
    theory = rng.choice(("monoid", "semiring", "commsemiring"))
    lhs, rhs, verdict = rng.choice(prove_pairs(rng, theory, rng.randint(2, 3)))
    equation = f"{oracles.term_text(lhs)} = {oracles.term_text(rhs)}"
    return ("prove", "--theory", theory, equation), None, verdict


def _value_pair(rng, ops, value):
    e = _expr(rng, 3, ops, _num_leaf)
    return e, value(e)


def make_jobs(seed, ctx):
    from certify_workload import prove_pairs

    rng = oracles.make_rng(seed, "cli")
    jobs = []
    for sub in SUBCOMMANDS:
        for _ in range(PER_SUBCOMMAND):
            argv, stdin_text, oracle = _call(rng, sub, prove_pairs)
            jobs.append(Job(sub, (argv, stdin_text), expect=(0, oracle), deadline=DEADLINE))
    for argv, code in ERROR_PATHS:
        jobs.append(Job(argv[0], (argv, None), expect=(code, None), deadline=DEADLINE))
    b, n = rng.randint(1, 1000), rng.randint(1, 10**6)
    bits = [(b * n >> i) & 1 for i in range((b * n).bit_length())]
    known = [
        (("frac", "(" * 3000 + "1" + ")" * 3000), (2, None)),
        (("laws", "nat-add", "--budget", "-5"), (2, None)),
        (("isprime", "2305843009213693951"), (0, 2305843009213693951)),
        (("factor", "999999999999999989"), (0, 999999999999999989)),
        (("pow", "bin-add", str(b), str(n)), (0, bits)),
    ]
    jobs += [Job(argv[0], (argv, None), expect=expect, known_defect=True, deadline=DEADLINE)
             for argv, expect in known]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# execution and checks


def execute(job, ctx, api):
    argv, stdin_text = job.args
    return getattr(api, job.family)(argv, stdin_text), 1


def _oracle_ok(sub, doc, want, argv):
    if sub == "laws":
        return (doc["ok"] is True and [i["name"] for i in doc["instances"]] == list(want)
                and all(i["cases"] > 0 and not i["failures"] for i in doc["instances"]))
    if sub == "factor":
        return doc["verified"] is True and oracles.factorization_ok(
            want, doc["unit"], [tuple(f) for f in doc["factors"]])
    if sub == "egcd":
        return doc["verified"] is True and oracles.bezout_ok(
            *want, doc["g"], doc["u"], doc["v"], doc["qa"], doc["qb"])
    if sub == "isprime":
        return oracles.primality_ok(want, doc["verdict"], doc.get("witness_divisor"),
                                    doc.get("witness_quotient"))
    if sub == "residue":
        return doc["value"] == want
    if sub == "frac":
        return (doc["num"], doc["den"]) == want
    if sub == "poly":
        return _parse_poly_text(doc["poly"]) == want
    if sub == "sort":
        ys, perm = want
        if "frac" in argv:
            ys = [{"num": f.numerator, "den": f.denominator} for f in ys]
        return doc["verified"] is True and doc["ys"] == list(ys) and doc["perm"] == list(perm)
    if sub == "pow":
        return doc["result"] == want
    return doc["verdict"] is want


def check(job, out):
    code, stdout = out
    if code is None:
        return "timeout"
    want_code, oracle = job.expect
    if code != want_code:
        return "exit_mismatch"
    if code == 0:
        try:
            ok = _oracle_ok(job.family, json.loads(stdout), oracle, job.args[0])
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            return "oracle"
    return None


# ---------------------------------------------------------------------------
# per-layer figures measured outside the call loop

PROBES = 5
IN_PROCESS_REPEATS = 3
PARSE_REPEATS = 5


def _in_process_main(cli, argv, stdin_text):
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main([*argv, "--json"])
    finally:
        sys.stdin = saved


def layer_metrics(ctx, jobs):
    """interp, import, in-process main and parse_command figures. Known
    defects stay out of the in-process loop: an in-process call cannot be
    cut off at a deadline."""
    cli = ctx.cli
    interp = []
    for _ in range(PROBES):
        t0 = perf_counter()
        harness.run_child([sys.executable, "-c", "pass"], 60)
        interp.append(perf_counter() - t0)
    main_times = []
    for _ in range(IN_PROCESS_REPEATS):
        for job in jobs:
            if not job.known_defect:
                t0 = perf_counter()
                _in_process_main(cli, *job.args)
                main_times.append(perf_counter() - t0)
    parse_times = []
    for _ in range(PARSE_REPEATS):
        for job in jobs:
            t0 = perf_counter()
            try:
                cli.parse_command([*job.args[0], "--json"])
            except cli.ParseError:
                pass
            parse_times.append(perf_counter() - t0)
    return {
        "cli.interp_ms": statistics.median(interp) * 1e3,
        "cli.import_ms": statistics.median(harness.setup_seconds("cli", PROBES)) * 1e3,
        "cli.main.ms_p50": statistics.median(main_times) * 1e3,
        "cli.parse_command.us_p50": statistics.median(parse_times) * 1e6,
    }
