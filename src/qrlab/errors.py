"""Exception types shared across the package."""


class QrlabError(Exception):
    """Base class for all qrlab errors."""


# -- finite fields ----------------------------------------------------------

class NotPrime(QrlabError):
    pass


class ReducibleModulus(QrlabError):
    pass


class OrderOverflow(QrlabError):
    pass


class DivisionByZero(QrlabError):
    pass


class FieldMismatch(QrlabError):
    pass


# -- formulas ---------------------------------------------------------------

class FormulaSyntaxError(QrlabError):
    """Raised on malformed formula text; carries position and expectation."""

    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} at position {position}"
                         + (f" (expected one of: {', '.join(expected)})" if expected else ""))
        self.position = position
        self.expected = tuple(expected)


class UnboundVariable(QrlabError):
    pass


class ArityTooLarge(QrlabError):
    pass


# -- groups -----------------------------------------------------------------

class OrderCap(QrlabError):
    pass


class NotAGroup(QrlabError):
    """A table breaks a group law, directly or in data derived from it."""


class NotAbelian(QrlabError):
    pass


class CosetMismatch(QrlabError):
    pass


class NotNormalWhenRequired(QrlabError):
    pass


# -- metrics ----------------------------------------------------------------

class ShapeMismatch(QrlabError):
    pass


class SideTooLarge(QrlabError):
    pass


class NoConvergence(QrlabError):
    pass


class DegeneracyNotResolved(QrlabError):
    pass


# -- experiment harness -----------------------------------------------------

class InadmissibleQ(QrlabError):
    pass


class NotSubset(QrlabError):
    pass
