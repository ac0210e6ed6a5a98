"""Exception types shared across the rumorcast modules.

Every error raised by the library derives from :class:`RumorcastError`, so
callers can catch one base class at an API boundary.  The subclasses are
semantic: they name the broken contract, not the module that noticed it.
"""

from __future__ import annotations


class RumorcastError(Exception):
    """Base class for all rumorcast errors."""


class RangeViolation(RumorcastError, ValueError):
    """A numeric input fell outside its admissible open or closed range."""


class OrderingViolation(RumorcastError, ValueError):
    """Values that must be strictly ordered are not (e.g. evidence rates)."""


class DomainError(RumorcastError, ValueError):
    """An input lies outside the domain on which the operation is defined."""


class EmptySupport(RumorcastError, ValueError):
    """A belief with no support atoms was supplied where mass is required."""


class Infeasible(RumorcastError):
    """No parameter value can satisfy the request (e.g. a sensitivity
    threshold for an action that is never the nearest one)."""


class InvalidGraph(RumorcastError, ValueError):
    """A social graph failed structural validation; carries the witness."""


class InstanceTooLarge(RumorcastError):
    """A brute-force oracle was asked to enumerate beyond its size cap."""


class InvariantViolation(RumorcastError, ValueError):
    """A model object is internally inconsistent (dimension mismatches,
    belief support outside the declared type sets, and similar)."""


class ParseError(RumorcastError):
    """A scenario file is not syntactically well formed."""


class SchemaError(RumorcastError):
    """A scenario file parsed but does not match the documented schema."""
