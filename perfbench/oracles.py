"""Independent oracles for the benchmark.

Stdlib only: nothing here imports certalg. Each check takes plain values
(ints, tuples, stdlib Fractions) extracted from a certalg result or a CLI
JSON document and returns True when the result is right.

Terms for the prover family use the benchmark's own tuple form:
("v", name), ("n", k), ("e",), ("+", l, r), ("*", l, r).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# Miller-Rabin on the first twelve prime bases is exact below 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def bezout_ok(a, b, g, u, v, qa, qb) -> bool:
    return (g == math.gcd(a, b) and u * a + v * b == g
            and qa * g == a and qb * g == b)


def primality_ok(n, verdict, divisor=None, quotient=None) -> bool:
    if verdict == "prime":
        return is_prime(abs(n))
    return (verdict == "composite" and not is_prime(abs(n))
            and 1 < abs(divisor) < abs(n) and divisor * quotient == n)


def factorization_ok(n, unit, pairs) -> bool:
    """pairs: (prime, multiplicity) in increasing prime order."""
    primes = [p for p, _ in pairs]
    if unit not in (1, -1) or primes != sorted(set(primes)):
        return False
    acc = unit
    for p, k in pairs:
        if k < 1 or not is_prime(p):
            return False
        acc *= p ** k
    return acc == n


def fraction_ok(value: Fraction, num, den) -> bool:
    """A canonical result equals the stdlib Fraction term by term."""
    return (num, den) == (value.numerator, value.denominator)


def eval_chain(start: Fraction, steps) -> Fraction:
    """steps: ("add"|"mul", Fraction) or ("neg"|"inv", None)."""
    acc = start
    for op, arg in steps:
        if op == "add":
            acc = acc + arg
        elif op == "mul":
            acc = acc * arg
        elif op == "neg":
            acc = -acc
        else:
            acc = 1 / acc
    return acc


# ---------------------------------------------------------------------------
# polynomials as {exponent: coefficient} dicts, coefficients mod m when m


def poly_add(p: dict, q: dict, m=None) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return _clean(out, m)


def poly_mul(p: dict, q: dict, m=None) -> dict:
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return _clean(out, m)


def _clean(d: dict, m) -> dict:
    if m is not None:
        d = {e: c % m for e, c in d.items()}
    return {e: c for e, c in d.items() if c}


def poly_terms(d: dict) -> tuple:
    """Canonical (coefficient, exponent) tuple, decreasing exponent."""
    return tuple((d[e], e) for e in sorted(d, reverse=True))


# ---------------------------------------------------------------------------
# sorting


def sort_oracle(xs, key=lambda x: x):
    """Stable sort with an index key: (ys, perm) with ys[perm[i]] = xs[i]."""
    order = sorted(range(len(xs)), key=lambda i: (key(xs[i]), i))
    perm = [0] * len(xs)
    for out_pos, in_pos in enumerate(order):
        perm[in_pos] = out_pos
    return tuple(xs[i] for i in order), tuple(perm)


# ---------------------------------------------------------------------------
# powering


def power_ok(kind, base, n, result, squarings, modulus=None) -> bool:
    """kind: nat-mul, int-add, bin-add (base and result as ints) or zmod."""
    if squarings != max(n.bit_length() - 1, 0):
        return False
    if kind == "nat-mul":
        return result == base ** n
    if kind in ("int-add", "bin-add"):
        return result == base * n
    return result == pow(base, n, modulus)


def bits_to_int(bits) -> int:
    """Least-significant-first bit list to int; rejects trailing zeros."""
    if bits and bits[-1] != 1:
        raise ValueError(f"non-canonical bit list {bits!r}")
    return sum(b << i for i, b in enumerate(bits))


# ---------------------------------------------------------------------------
# equational theories: models and pair construction


def _mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


def _mat_add(a, b):
    return tuple(tuple(a[i][j] + b[i][j] for j in range(2)) for i in range(2))


def evaluate(theory, t, env):
    """Value of a term in the theory's model: words for monoid, 2x2 natural
    matrices for semiring, naturals for commsemiring."""
    tag = t[0]
    if tag == "v":
        return env[t[1]]
    if tag == "e":
        return ()
    if tag == "n":
        if theory == "semiring":
            return ((t[1], 0), (0, t[1]))
        return t[1]
    left, right = evaluate(theory, t[1], env), evaluate(theory, t[2], env)
    if theory == "monoid":
        return left + right
    if theory == "semiring":
        return _mat_add(left, right) if tag == "+" else _mat_mul(left, right)
    return left + right if tag == "+" else left * right


def term_vars(t) -> set:
    if t[0] == "v":
        return {t[1]}
    if t[0] in "+*":
        return term_vars(t[1]) | term_vars(t[2])
    return set()


def _random_env(theory, names, rng):
    if theory == "monoid":
        # the free monoid: each variable maps to itself as a word
        return {n: (n,) for n in names}
    if theory == "semiring":
        return {n: ((rng.randint(0, 3), rng.randint(0, 3)),
                    (rng.randint(0, 3), rng.randint(0, 3))) for n in names}
    return {n: rng.randint(0, 9) for n in names}


def find_refutation(theory, lhs, rhs, rng, tries=40):
    """An assignment where the two sides differ in the model, or None."""
    names = sorted(term_vars(lhs) | term_vars(rhs))
    for _ in range(tries):
        env = _random_env(theory, names, rng)
        if evaluate(theory, lhs, env) != evaluate(theory, rhs, env):
            return env
    return None


def _rewrites(theory, t):
    """Terms equal to t by one axiom applied at the root."""
    out = []
    tag = t[0]
    unit = ("e",) if theory == "monoid" else ("n", 1)
    out.append(("*", t, unit))
    out.append(("*", unit, t))
    if theory != "monoid":
        out.append(("+", t, ("n", 0)))
    if tag not in "+*":
        return out
    left, right = t[1], t[2]
    if left[0] == tag:
        out.append((tag, left[1], (tag, left[2], right)))
    if right[0] == tag:
        out.append((tag, (tag, left, right[1]), right[2]))
    if tag == "+" or theory == "commsemiring":
        out.append((tag, right, left))
    if tag == "*" and theory != "monoid":
        if right[0] == "+":
            out.append(("+", ("*", left, right[1]), ("*", left, right[2])))
        if left[0] == "+":
            out.append(("+", ("*", left[1], right), ("*", left[2], right)))
    return out


def _positions(t, path=()):
    yield path
    if t[0] in "+*":
        yield from _positions(t[1], path + (1,))
        yield from _positions(t[2], path + (2,))


def _get(t, path):
    for i in path:
        t = t[i]
    return t


def _put(t, path, new):
    if not path:
        return new
    parts = list(t)
    parts[path[0]] = _put(t[path[0]], path[1:], new)
    return tuple(parts)


def rewrite(theory, t, steps, rng):
    """Apply `steps` random axiom instances at random positions: an equal term."""
    for _ in range(steps):
        path = rng.choice(list(_positions(t)))
        t = _put(t, path, rng.choice(_rewrites(theory, _get(t, path))))
    return t


def perturb(theory, t, names, rng):
    """A nearby term, usually not equal to t; callers confirm with a refutation."""
    path = rng.choice(list(_positions(t)))
    sub = _get(t, path)
    roll = rng.random()
    if roll < 0.4:
        new = ("v", rng.choice(names))
    elif roll < 0.7 or theory == "monoid":
        new = ("*", sub, ("v", rng.choice(names)))
    else:
        new = ("+", sub, ("n", 1))
    return _put(t, path, new)


def random_term(theory, depth, names, rng, max_leaves=12):
    """A random term of exactly the given depth with at most max_leaves leaves."""
    budget = [max_leaves]

    def build(d, must_reach):
        if d == 0 or budget[0] <= 1 or (not must_reach and rng.random() < 0.35):
            budget[0] -= 1
            if theory == "monoid":
                return ("e",) if rng.random() < 0.1 else ("v", rng.choice(names))
            if rng.random() < 0.15:
                return ("n", rng.randint(0, 3))
            return ("v", rng.choice(names))
        op = "*" if theory == "monoid" else rng.choice("+*")
        budget[0] -= 1
        deep_left = rng.random() < 0.5
        left = build(d - 1, must_reach and deep_left)
        right = build(d - 1, must_reach and not deep_left)
        return (op, left, right)

    return build(depth, True)


def binomial_power(n: int):
    """(x+y)^n as a left-nested product and as its commutative expansion."""
    s = ("+", ("v", "x"), ("v", "y"))
    prod = s
    for _ in range(n - 1):
        prod = ("*", prod, s)
    expansion = None
    for k in range(n + 1):
        mono = ("n", math.comb(n, k))
        for name, count in (("x", k), ("y", n - k)):
            for _ in range(count):
                mono = ("*", mono, ("v", name))
        expansion = mono if expansion is None else ("+", expansion, mono)
    return prod, expansion


def right_nested_power(n: int):
    s = ("+", ("v", "x"), ("v", "y"))
    prod = s
    for _ in range(n - 1):
        prod = ("*", s, prod)
    return prod


def term_text(t) -> str:
    """Fully parenthesised text in the CLI's term grammar."""
    tag = t[0]
    if tag == "v":
        return t[1]
    if tag == "e":
        return "e"
    if tag == "n":
        return str(t[1])
    return f"({term_text(t[1])} {tag} {term_text(t[2])})"


def make_rng(seed: int, label: str) -> random.Random:
    """Independent stream per input family, fixed by the workload seed."""
    return random.Random(f"{seed}:{label}")
