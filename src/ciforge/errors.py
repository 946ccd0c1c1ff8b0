"""Exception types shared across the package, and the time limit that
raises `BuchbergerTimeout`.

The time limit lives here, below every layer that checks it, so the parser
and the linear algebra check it without depending on the basis computation.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator


class ParseError(ValueError):
    """Raised for malformed expression or file input.

    ``position`` is a 0-based character offset into the parsed text when the
    error comes from the expression parser, or None for file-level problems.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class RingMismatchError(ValueError):
    """Operands live in different polynomial rings."""


class NotHomogeneousError(ValueError):
    """A homogeneous polynomial was required."""


class PointNotOnVarietyError(ValueError):
    """Some generator does not vanish at the supplied point."""


class NotSmoothError(ValueError):
    """The supplied point is not a smooth point of the variety."""


class NotInIdealError(ValueError):
    """A polynomial required to be an ideal member is not one."""


class ImproperIdealError(ValueError):
    """The ideal contains a nonzero constant (unit)."""


class CertificateMismatchError(ValueError):
    """Certificate input hash does not match the supplied data."""


class BuchbergerTimeout(TimeoutError):
    """A phase run under `basis_time_limit` passed the limit."""


_deadline: ContextVar[float | None] = ContextVar("basis_deadline", default=None)


@contextmanager
def basis_time_limit(seconds: float) -> Iterator[None]:
    """Bound the wall-clock time of parsing, polynomial products, basis
    computations, divisions, row reductions, dimension searches and rewrite
    loops started in this context."""
    token = _deadline.set(time.monotonic() + seconds)
    try:
        yield
    finally:
        _deadline.reset(token)


def check_deadline(phase: str) -> None:
    """Raise `BuchbergerTimeout`, naming ``phase``, once the limit has passed."""
    deadline = _deadline.get()
    if deadline is not None and time.monotonic() > deadline:
        raise BuchbergerTimeout(f"{phase} exceeded its time limit")
