"""Generic oracles for the differential tests.

A fast route is chosen by a role: an op such as native_int or to_int in a
StructureInstance's ops, or the native_int field of a DecTotalOrder. A copy
without that role is the generic oracle, and a spy on the copy's ops (or
leq) shows that the oracle really reaches the generic route.
"""

from collections import Counter

from certalg.certlists import DecTotalOrder


def replaced(rec, **changes):
    """A copy of a record with the named fields changed, rebuilt from its
    __slots__."""
    fields = {name: getattr(rec, name) for name in rec.__slots__}
    assert set(changes) <= set(fields), changes
    return type(rec)(**{**fields, **changes})


def without_roles(inst, *names):
    """A copy of a StructureInstance without the named ops, or of a
    DecTotalOrder with the named role fields off. Each role must be there."""
    if isinstance(inst, DecTotalOrder):
        assert all(getattr(inst, name) is True for name in names), names
        return replaced(inst, **dict.fromkeys(names, False))
    assert set(names) <= set(inst.ops), names
    return replaced(inst, ops={role: fn for role, fn in inst.ops.items() if role not in names})


def spied(inst, *names):
    """(copy, calls): a copy of inst whose named ops, or an order's leq,
    count their calls in the Counter calls. Every role is kept."""
    calls = Counter()

    def spy(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    if isinstance(inst, DecTotalOrder):
        return replaced(inst, leq=spy("leq", inst.leq)), calls
    ops = dict(inst.ops)
    for name in names:
        ops[name] = spy(name, ops[name])
    return replaced(inst, ops=ops), calls
