"""Exception types shared across the package.

Each type carries its exit code and stderr label as the class attributes
`exit_code` and `label`, and `cli` ends a package error with the line
``<label>: <message>`` and that code: a failed guarantee check exits 1
(`guarantee failed`), a precondition failure (including an input that
violates an assumed structural condition) 2 (`precondition`), a search-size
cap 3 (`size cap`) and a malformed edge list 4 (`bad edge list`). Any other
exception is an internal error and exits 5."""

from __future__ import annotations


class NearRegError(Exception):
    """Base class for all package errors. Each subclass sets its own exit
    code; a bare one is a bug, as any other exception is."""

    exit_code, label = 5, "internal error"


class PreconditionError(NearRegError):
    """An operation's stated precondition does not hold for the input."""

    exit_code, label = 2, "precondition"


class CapExceededError(PreconditionError):
    """A deletion cap was hit, signalling the input lacks the bounded-spread
    property the extraction assumes (more vertices fell below the degree
    threshold than the cap allows)."""


class BoundViolationError(NearRegError):
    """A posted output guarantee failed.

    Carries the evaluated bound ledger so reports can show which check broke.
    On valid inputs this indicates a bug, never an input condition.
    """

    exit_code, label = 1, "guarantee failed"

    def __init__(self, message: str, checks: tuple = ()):  # noqa: ANN001
        super().__init__(message)
        self.checks = checks


class SizeCapError(NearRegError):
    """An exhaustive search was asked to exceed its instance-size cap."""

    exit_code, label = 3, "size cap"


class EdgeListError(NearRegError):
    """Malformed edge-list text: bad header, bad line, id out of range,
    self-loop, or duplicate edge."""

    exit_code, label = 4, "bad edge list"
