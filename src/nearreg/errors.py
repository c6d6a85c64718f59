"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: precondition failures
(including inputs that violate an assumed structural condition) exit 2,
search-size caps exit 3, file/format problems exit 4, and a failed
guarantee check exits 1. Any other exception is an internal error and
exits 5.
"""

from __future__ import annotations


class NearRegError(Exception):
    """Base class for all package errors."""


class PreconditionError(NearRegError):
    """An operation's stated precondition does not hold for the input."""


class CapExceededError(PreconditionError):
    """A deletion cap was hit, signalling the input lacks the bounded-spread
    property the extraction assumes (more vertices fell below the degree
    threshold than the cap allows)."""


class BoundViolationError(NearRegError):
    """A posted output guarantee failed.

    Carries the evaluated bound ledger so reports can show which check broke.
    On valid inputs this indicates a bug, never an input condition.
    """

    def __init__(self, message: str, checks: tuple = ()):  # noqa: ANN001
        super().__init__(message)
        self.checks = checks


class SizeCapError(NearRegError):
    """An exhaustive search was asked to exceed its instance-size cap."""


class EdgeListError(NearRegError):
    """Malformed edge-list text: bad header, bad line, id out of range,
    self-loop, or duplicate edge."""
