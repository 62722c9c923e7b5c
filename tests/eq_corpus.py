"""Shared equation corpus for the prover tests and the acceptance suite.

Each row is (theory, lhs, rhs, expected_verdict). The verdicts are the
intended ground truth; misclassification of any row is a prover defect.
"""

import operator

from certalg.eqprover import Apply, NatConst, UnitConst, Var, eval_in

x, y, z = Var("x"), Var("y"), Var("z")
e = UnitConst()

# every operator of the grammar joins its operands' names
_NAMES = dict.fromkeys("+-*/", operator.or_) | {"neg": set}


def term_vars(t) -> set:
    """The names of the variables in t; the models' tests draw a value for each."""
    return eval_in(_NAMES, lambda s: {s.name} if isinstance(s, Var) else set(), t)


def mul(a, b):
    return Apply("*", a, b)


def add(a, b):
    return Apply("+", a, b)


def nat(n):
    return NatConst(n)


MONOID_CORPUS = [
    (mul(mul(x, y), z), mul(x, mul(y, z)), True),
    (mul(x, e), x, True),
    (mul(e, x), x, True),
    (mul(e, e), e, True),
    (mul(mul(x, x), x), mul(x, mul(x, x)), True),
    (mul(mul(x, y), mul(z, x)), mul(x, mul(y, mul(z, x))), True),
    (mul(e, mul(x, e)), x, True),
    (mul(mul(e, x), y), mul(x, y), True),
    (mul(x, mul(y, mul(z, e))), mul(mul(x, y), z), True),
    (mul(mul(x, mul(y, x)), z), mul(x, mul(mul(y, x), z)), True),
    (mul(x, y), mul(y, x), False),
    (mul(x, x), x, False),
    (mul(x, e), e, False),
    (x, y, False),
    (mul(x, mul(y, z)), mul(mul(x, z), y), False),
    (mul(x, y), mul(x, mul(y, y)), False),
    (e, x, False),
    (mul(x, mul(x, x)), mul(x, x), False),
    (mul(z, mul(y, x)), mul(mul(x, y), z), False),
    (mul(mul(x, y), mul(x, y)), mul(mul(x, x), mul(y, y)), False),
]

COMMSEMIRING_CORPUS = [
    (mul(x, add(y, z)), add(mul(x, y), mul(x, z)), True),
    (mul(x, y), mul(y, x), True),
    (add(x, y), add(y, x), True),
    (add(add(x, y), z), add(x, add(y, z)), True),
    (mul(mul(x, y), z), mul(x, mul(y, z)), True),
    (mul(add(x, y), add(x, y)),
     add(add(mul(x, x), mul(nat(2), mul(x, y))), mul(y, y)), True),
    (mul(add(x, y), z), add(mul(x, z), mul(y, z)), True),
    (add(x, nat(0)), x, True),
    (mul(x, nat(0)), nat(0), True),
    (mul(x, nat(1)), x, True),
    (mul(nat(2), x), add(x, x), True),
    (mul(add(x, nat(1)), add(x, nat(1))),
     add(mul(x, x), add(mul(nat(2), x), nat(1))), True),
    (mul(add(x, y), add(x, z)),
     add(mul(x, x), add(mul(x, z), add(mul(x, y), mul(y, z)))), True),
    (add(mul(nat(3), x), mul(nat(4), x)), mul(nat(7), x), True),
    (mul(nat(2), mul(nat(3), x)), mul(nat(6), x), True),
    (mul(x, add(y, nat(0))), add(y, x), False),
    (add(x, y), mul(x, y), False),
    (mul(add(x, y), add(x, y)), add(mul(x, x), mul(y, y)), False),
    (add(x, x), x, False),
    (mul(nat(2), x), mul(nat(3), x), False),
    (add(x, nat(1)), x, False),
    (mul(x, x), x, False),
]

SEMIRING_CORPUS = [
    (mul(x, add(y, z)), add(mul(x, y), mul(x, z)), True),
    (mul(add(x, y), z), add(mul(x, z), mul(y, z)), True),
    (add(x, y), add(y, x), True),
    (mul(mul(x, y), z), mul(x, mul(y, z)), True),
    (mul(x, nat(1)), x, True),
    (mul(nat(1), x), x, True),
    (add(x, nat(0)), x, True),
    (mul(x, nat(0)), nat(0), True),
    (mul(add(x, y), add(x, y)),
     add(add(mul(x, x), add(mul(x, y), mul(y, x))), mul(y, y)), True),
    (add(mul(x, y), mul(x, y)), mul(nat(2), mul(x, y)), True),
    (mul(add(x, nat(1)), y), add(mul(x, y), y), True),
    (mul(add(y, y), x), mul(nat(2), mul(x, y)), False),
    (mul(x, y), mul(y, x), False),
    (mul(mul(x, y), x), mul(mul(x, x), y), False),
    (mul(add(x, y), add(x, y)),
     add(add(mul(x, x), mul(nat(2), mul(x, y))), mul(y, y)), False),
    (mul(add(x, y), z), add(mul(z, x), mul(z, y)), False),
    (add(mul(x, y), mul(y, x)), mul(nat(2), mul(x, y)), False),
    (mul(x, mul(y, x)), mul(mul(x, x), y), False),
    (mul(nat(2), x), mul(x, nat(2)), True),
    (mul(x, add(nat(1), nat(1))), add(x, x), True),
]

CORPUS = ([("monoid", l, r, v) for l, r, v in MONOID_CORPUS]
          + [("commsemiring", l, r, v) for l, r, v in COMMSEMIRING_CORPUS]
          + [("semiring", l, r, v) for l, r, v in SEMIRING_CORPUS])
