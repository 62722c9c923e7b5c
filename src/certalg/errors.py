"""Shared error types. Division-by-zero conditions raise the builtin ZeroDivisionError."""


class CertAlgError(Exception):
    pass


class StructuralError(CertAlgError):
    """An instance is malformed or used outside its signature: missing op,
    mismatched carriers or ring handles, operator outside a prover theory."""


class InvalidInputError(CertAlgError):
    """A precondition on the input data failed: forged witness, primality
    query on |n| <= 1, non-canonical bit list, zero or invertible modulus."""


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
