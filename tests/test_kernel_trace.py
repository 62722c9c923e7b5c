"""What a verifier runs: under sys.setprofile, every function of the package
that a kernel frame calls must be the kernel's own or one the caller handed
it, an op, the carrier's eq or an order's leq, of the structure passed in.
So a verifier trusts no producer, the de Bruijn criterion (Barendregt and
Wiedijk, Phil. Trans. R. Soc. A 363, 2005)."""

import os
import sys

from roles import replaced
from certalg import kernel
from certalg.certlists import fraction_order, int_order, sort_certified
from certalg.euclid import extended_gcd, int_ring, residue_ring
from certalg.factorization import factor
from certalg.fractions import mk_fraction
from certalg.kernel import (BezoutCertificate, DividesWitness, check_divides,
                            check_factorization, verify_bezout, verify_primality,
                            verify_sort_result)
from certalg.primes import is_prime

KERNEL = kernel.__file__
PACKAGE = os.path.dirname(KERNEL)


def _handed(structure):
    """The code of each function that structure hands a verifier: a ring's
    ops and its carrier's eq, or an order's leq and its carrier's eq."""
    if structure is None:
        return set()
    fns = [structure.base.eq]
    fns += [structure.leq] if hasattr(structure, "leq") else list(structure.ops.values())
    return {fn.__code__ for fn in fns if hasattr(fn, "__code__")}


def _reached(verify, *args):
    """(verdict, codes): verify(*args), and the code of each package function
    outside the kernel that a kernel frame called, in call order."""
    codes = []

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and frame.f_back is not None
                and frame.f_back.f_code.co_filename == KERNEL
                and code.co_filename != KERNEL and os.path.dirname(code.co_filename) == PACKAGE):
            codes.append(code)

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        verdict = verify(*args)
    finally:
        sys.setprofile(old)
    return verdict, codes


def _samples():
    """(verify, args, expected verdict, structure handed to verify), valid
    and forged, over each verifier of the kernel."""
    ring = int_ring()
    z7 = residue_ring(ring, 7)
    r7 = z7.ops["from_int"]
    good = extended_gcd(ring, 240, -46)
    good7 = BezoutCertificate(*map(r7, (3, 0, 3, 1, 0, 1, 0)))
    pratt = is_prime(2**61 - 1)
    f = factor(2**64 + 1)
    ints = [3, 1, 2, 1]
    fracs = [mk_fraction(ring, n, d) for n, d in ((1, 2), (-3, 4), (2, 3), (1, 2))]
    by_int, by_frac = sort_certified(int_order(), ints), sort_certified(fraction_order(), fracs)
    return [
        (verify_bezout, (ring, good), True, ring),
        (verify_bezout, (ring, replaced(good, u=good.u + 1)), False, ring),
        (verify_bezout, (ring, replaced(good, g=True)), False, ring),
        (verify_bezout, (z7, good7), True, z7),
        (verify_bezout, (z7, replaced(good7, u=r7(2))), False, z7),
        (verify_bezout, (z7, replaced(good7, v=0)), False, z7),
        (check_divides, (ring, DividesWitness(3, 12, 4)), True, ring),
        (check_divides, (ring, DividesWitness(3, 12, 5)), False, ring),
        (check_divides, (z7, DividesWitness(r7(2), r7(6), r7(3))), True, z7),
        (check_divides, (z7, DividesWitness(r7(2), r7(6), r7(2))), False, z7),
        (verify_primality, (pratt,), True, None),
        (verify_primality, (replaced(pratt, pratt=replaced(pratt.pratt, base=1)),), False, None),
        (verify_primality, (replaced(pratt, subject=2**61 + 1),), False, None),
        (check_factorization, (f, 2**64 + 1), True, None),
        (check_factorization, (f, 2**64 + 3), False, None),
        (check_factorization, (replaced(f, unit=-1), 2**64 + 1), False, None),
        (verify_sort_result, (int_order(), ints, by_int), True, int_order()),
        (verify_sort_result, (int_order(), ints, replaced(by_int, ys=(1, 1, 3, 2))), False,
         int_order()),
        (verify_sort_result, (fraction_order(), fracs, by_frac), True, fraction_order()),
        (verify_sort_result, (fraction_order(), fracs, replaced(by_frac, perm=(0, 1, 2, 3))),
         False, fraction_order()),
    ]


def test_a_verifier_calls_nothing_of_the_package_but_what_it_is_handed():
    seen = set()
    for verify, args, expected, structure in _samples():
        verdict, codes = _reached(verify, *args)
        assert verdict is expected, (verify.__name__, args)
        stray = [f"{os.path.basename(c.co_filename)}:{c.co_name}" for c in codes
                 if c not in _handed(structure)]
        assert not stray, (verify.__name__, args, stray)
        seen.update(codes)
    # the profile sees the handed ops: int_ring()'s mul, the residue ring's
    # mul, an order's leq
    assert {int_ring().ops["mul"].__code__, residue_ring(int_ring(), 7).ops["mul"].__code__,
            int_order().leq.__code__, fraction_order().leq.__code__} <= seen
