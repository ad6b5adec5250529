"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`FinharmError` so callers can
catch one type at the CLI boundary. A few classes double-inherit from the
matching builtin (e.g. ``IndexError``) so idiomatic except clauses keep
working.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .reports import SweepReport


class FinharmError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPermutation(FinharmError):
    """A generator is not a permutation of range(degree)."""


class ClosureExceedsCap(FinharmError):
    """Group closure grew past the configured element cap."""


class ParseError(FinharmError):
    """Group-spec string is malformed; carries the failing position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"at position {position}: {message}")
        self.position = position


class UnsupportedParameter(FinharmError):
    """Named family got a parameter outside its documented range."""


class OrderTooLarge(FinharmError):
    """Requested object exceeds a hard size cap."""


class EigensplitFailure(FinharmError):
    """Random class-sum combination failed to separate eigenspaces."""


class ToleranceViolation(FinharmError):
    """A verified numerical identity missed its tolerance."""


class GroupMismatch(FinharmError):
    """Two objects built over different ambient groups were combined."""


class SubgroupMismatch(FinharmError):
    """A character does not live on the subgroup it was paired with."""


class IndexOutOfRange(FinharmError, IndexError):
    """Irrep or element index outside the valid range."""


class NonIntegralMultiplicity(FinharmError):
    """Frobenius inner product failed to round to a nonnegative integer."""


class SweepAborted(FinharmError):
    """A sweep died partway; carries the partial report for delivery."""

    def __init__(self, message: str, report: SweepReport) -> None:
        super().__init__(message)
        self.report = report
