"""Random expression trees for grammar round-trip checks, one per mode."""

from certalg.eqprover import Apply, NatConst, Neg, PowSym, UnitConst, Var


def random_expr(rng, mode, depth):
    if depth == 0 or rng.random() < 0.3:
        choices = ["num"]
        if mode == "poly":
            choices.append("pow")
        if mode == "term":
            choices = ["num", "sym"]
        pick = rng.choice(choices)
        if pick == "num":
            return NatConst(rng.randrange(0, 50))
        if pick == "pow":
            return PowSym("x", rng.randrange(0, 9))
        name = rng.choice(["a", "b", "c", "e"])
        return UnitConst() if name == "e" else Var(name)
    roll = rng.random()
    if roll < 0.15 and mode != "term":
        return Neg(random_expr(rng, mode, depth - 1))
    ops = ["+", "*"]
    if mode in ("int", "frac", "poly"):
        ops.append("-")
    if mode == "frac":
        ops.append("/")
    op = rng.choice(ops)
    return Apply(op, random_expr(rng, mode, depth - 1),
                 random_expr(rng, mode, depth - 1))
