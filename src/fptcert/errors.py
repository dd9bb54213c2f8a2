"""Exception hierarchy shared by every module.

Each error class carries an ``exit_code`` used by the command line driver
and a ``kind`` string (the class name) used in JSON error objects.
"""


class FptcertError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1

    @property
    def kind(self):
        return type(self).__name__


class InputError(FptcertError):
    """Invalid or out-of-contract input (exit code 2)."""

    exit_code = 2


class ParseError(InputError):
    """Polynomial text that does not match the grammar.

    ``position`` is the 0-based offset into the input text, or None when
    the problem is not tied to a single character.
    """

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)


class RingMismatch(InputError):
    """Operands live over different coefficient rings."""


class DenominatorDivisibleByP(InputError):
    """A rational coefficient cannot be reduced because p divides its
    denominator."""


class EmptyBlock(InputError):
    """A generator contributes no new monomials to the reduced support
    list, so its block would be empty."""


class NotInMaximalIdeal(InputError):
    """A generator has a nonzero constant term (or is constant), so it
    does not lie in the ideal generated by the variables."""


class HypothesisError(FptcertError):
    """The input violates a hypothesis a method needs (exit code 3)."""

    exit_code = 3


class NonUniqueMaximalPoint(HypothesisError):
    """The face of the splitting polytope maximizing the coordinate sum
    contains more than one point."""

    def __init__(self, message, free_coordinates=(), coordinate_ranges=None):
        self.free_coordinates = tuple(free_coordinates)
        self.coordinate_ranges = coordinate_ranges
        super().__init__(message)


class BudgetExceeded(FptcertError):
    """A work meter ran past its configured cap (exit code 4)."""

    exit_code = 4


class DimensionTooLarge(BudgetExceeded):
    """Vertex enumeration was asked for a polytope whose dimension
    exceeds the configured cap."""
