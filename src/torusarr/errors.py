"""Exception hierarchy.

Every error raised by this package derives from TorusArrError, so callers
(including the CLI) can catch one base class. Errors carry plain-text
messages; a few carry structured data useful for diagnostics.
"""

from __future__ import annotations


class TorusArrError(Exception):
    """Base class for all errors raised by torusarr."""


class InvalidInput(TorusArrError):
    """Malformed low-level input (empty vector, non-integer entry, ...)."""


class InvalidParams(TorusArrError):
    """Parameters outside the documented domain (d < 1, n < 1, ...)."""


class NonPrimitive(TorusArrError):
    """An integer vector whose entries have gcd != 1 where 1 is required."""


class DimensionMismatch(TorusArrError):
    """Vectors or constraint systems of inconsistent lengths."""


class ZeroNormal(TorusArrError):
    """All coefficients of a hyperplane equation are zero."""


class DuplicateSubtorus(TorusArrError):
    """Two subtori of an arrangement normalize to the same (normal, offset)."""

    def __init__(self, message: str, first: int | None = None, second: int | None = None):
        super().__init__(message)
        self.first = first
        self.second = second


class NotUnimodular(TorusArrError):
    """A basis-change matrix whose determinant is not exactly 1."""


class ParallelNormals(TorusArrError):
    """Intersection count requested for proportional normals."""


class ParamOutOfRange(TorusArrError):
    """Construction-family parameters outside the valid range."""


class NotFeasible(TorusArrError):
    """Requested region count is not achievable for the given (d, n)."""

    def __init__(self, message: str, feasible_set: object | None = None):
        super().__init__(message)
        self.feasible_set = feasible_set


class ResourceCapError(TorusArrError):
    """Lifted-hyperplane count exceeds the configured cap, or the cell route
    is asked for a dimension above ``regions.MAX_CELL_DIM``."""


class TheoremViolation(TorusArrError):
    """A counted arrangement violates a proven bound; indicates a bug.

    Carries the offending report so it can be dumped for diagnosis.
    """

    def __init__(self, message: str, report: object | None = None):
        super().__init__(message)
        self.report = report


class ParseError(TorusArrError):
    """Malformed .tarr input text."""
