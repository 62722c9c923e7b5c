"""Shared error types, and Fuel, the bound on the work one call may do.
Division-by-zero conditions raise the builtin ZeroDivisionError."""


class CertAlgError(Exception):
    pass


class StructuralError(CertAlgError):
    """An instance is malformed or used outside its signature: missing op,
    mismatched carriers or ring handles, operator outside a prover theory."""


class InvalidInputError(CertAlgError):
    """A precondition on the input data failed: forged witness, primality
    query on |n| <= 1, non-canonical bit list, zero or invertible modulus,
    a call that runs out of Fuel."""


class Fuel:
    """The work left to one top-level call, in its caller's unit (rho
    word-steps, term pairs), so that input causes at most limit units."""

    __slots__ = ("left",)

    def __init__(self, limit: int):
        self.left = limit

    def spend(self, cost: int, reason):
        """Past zero, raise InvalidInputError(reason()) before the step runs."""
        self.left -= cost
        if self.left < 0:
            raise InvalidInputError(reason())


class CompositeModulusError(CertAlgError):
    """A prime modulus was required but the certificate says composite.

    Carries the certificate so callers can print the factor witness.
    """

    def __init__(self, cert):
        self.cert = cert
        w = cert.witness
        super().__init__(f"modulus {cert.subject} is composite: {w.divisor} | {w.dividend}")


class ParseError(CertAlgError):
    """A malformed expression (position is the offending character's index)
    or command line (position None: the message names the argument)."""

    def __init__(self, message, position=None):
        self.position = position
        super().__init__(message if position is None else f"{message} at position {position}")
