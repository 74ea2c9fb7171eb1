"""Error types shared across the package.

Every exception that callers are expected to catch lives here, so the CLI
can map them to stable exit codes in one place.
"""

from __future__ import annotations


class SlnApproxError(Exception):
    """Base class for all package errors."""


class NotUnimodular(SlnApproxError):
    """Raised when a matrix that should have determinant 1 does not.

    Carries the actual determinant so callers can report it.
    """

    def __init__(self, determinant):
        self.determinant = determinant
        super().__init__(f"matrix has determinant {determinant}, expected 1")


class UnsupportedDimension(SlnApproxError):
    """Operation asked for a matrix size it does not support."""


class BudgetExceeded(SlnApproxError):
    """A computation would exceed its configured budget."""


class SearchSpaceTooLarge(BudgetExceeded):
    """An enumeration would exceed its configured cell or row budget."""

    def __init__(self, needed, budget, what="cells"):
        self.needed = needed
        self.budget = budget
        super().__init__(f"search needs {needed} {what}, budget is {budget}")


class ZeroValue(SlnApproxError):
    """A polynomial value is zero where a nonzero value is required."""


class MissingDensities(SlnApproxError):
    """A density value needed by a sieve computation was never supplied."""

    def __init__(self, q):
        self.q = q
        super().__init__(f"no density available for modulus {q}")


class ConvergenceFailure(SlnApproxError):
    """An eigensolve did not reach the required residual tolerance."""


class AlphaTooLarge(SlnApproxError):
    """The approximation exponent is at or beyond the admissible threshold."""

    def __init__(self, alpha, alpha0):
        self.alpha = alpha
        self.alpha0 = alpha0
        super().__init__(f"alpha = {alpha} is not below alpha0 = {alpha0}")


class NoWitness(SlnApproxError):
    """No group point found in the requested ball.

    ``smallest_radius`` is the first radius (found by doubling the requested
    one) at which a point does exist, or None if the probe gave up first.
    """

    def __init__(self, requested_radius, smallest_radius=None):
        self.requested_radius = requested_radius
        self.smallest_radius = smallest_radius
        msg = f"no point within radius {requested_radius}"
        if smallest_radius is not None:
            msg += f"; smallest radius with a point is {smallest_radius}"
        super().__init__(msg)


# CLI exit codes.  0 is success.
EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_NO_WITNESS = 3
EXIT_INVALID = 4
