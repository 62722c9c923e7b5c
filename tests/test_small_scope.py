"""Small-scope exhaustive soundness of the verifiers: every candidate in a
small box is checked against an oracle from nt_oracles, which imports
nothing from certalg. Most bugs show on small inputs (the small scope
hypothesis; Jackson, Software Abstractions, 2006).
"""

import itertools
import math

import pytest

import nt_oracles
from roles import without_roles
from certalg.euclid import BezoutCertificate, int_ring, verify_bezout

BOX = range(-3, 4)
# of the 7**7 = 823,543 certificates in the box, the oracle accepts this many
BEZOUT_ACCEPTED = 2841


@pytest.mark.parametrize("route", ["native", "generic"])
def test_verify_bezout_on_every_certificate_in_the_box(route):
    """verify_bezout accepts exactly the certificates whose three equations
    hold, over all 823,543 with every field in [-3, 3]. Each accepted one
    has |g| = gcd(a, b). Both routes take about 4 s under python -X dev,
    on 2 vCPUs with Python 3.11."""
    ring = int_ring()
    if route == "generic":
        ring = without_roles(ring, "native_int")
    accepted = 0
    for fields in itertools.product(BOX, repeat=7):
        verdict = verify_bezout(ring, BezoutCertificate(*fields))
        assert verdict is nt_oracles.bezout_holds(*fields), fields
        if verdict:
            a, b, g = fields[:3]
            assert abs(g) == math.gcd(a, b), fields
            accepted += 1
    assert accepted == BEZOUT_ACCEPTED
