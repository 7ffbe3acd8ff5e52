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


class BadExtensionDegree(QrlabError):
    pass


class NotPrimitive(QrlabError):
    """The powers of a field's generator do not run over its nonzero elements."""


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


class NotNormalWhenRequired(QrlabError):
    pass


# -- metrics ----------------------------------------------------------------

class ShapeMismatch(QrlabError):
    pass


class SideTooLarge(QrlabError):
    pass


class DegeneracyNotResolved(QrlabError):
    pass


class RoundingNotCertified(QrlabError):
    """A float transform's a-priori rounding bound does not fix the exact
    integers it should round to."""


# -- experiment harness -----------------------------------------------------

class InadmissibleQ(QrlabError):
    pass


class NotSubset(QrlabError):
    pass
