"""Exception types shared across the package."""

from __future__ import annotations


class ProdstatError(Exception):
    """Base class for package-specific errors."""


class InsufficientData(ProdstatError):
    """Too few observations for a reliable fit (minimum 100)."""


class RegimeError(ProdstatError):
    """Index algebra applied outside the regime where it is defined."""


class DivergentMoment(ProdstatError):
    """Requested moment does not exist for the model's tail index."""


class OutOfRegime(ProdstatError):
    """Asymptotic expansion requested outside its validity window."""


class WindowError(ProdstatError):
    """Scaling-window preconditions for a tail-relation run are not met."""


class SchemaError(ProdstatError):
    """Input file header does not match the documented schema."""


class TooManyBadRows(ProdstatError):
    """More than 1% of data rows were malformed."""


class EmptyYear(ProdstatError):
    """A requested year slice contains no samples."""
