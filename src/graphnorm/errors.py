"""Exception types shared across the package."""

from __future__ import annotations


class GraphNormError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GraphNormError):
    """Syntax error in Turtle data, rule text, or a description.

    Carries a 1-based line/column position and an optional source name so
    callers can point at the offending input.
    """

    def __init__(self, message: str, line: int, column: int, source: str | None = None):
        self.message = message
        self.line = line
        self.column = column
        self.source = source
        super().__init__(message)

    def __str__(self) -> str:
        where = f"{self.source}:{self.line}:{self.column}" if self.source else f"{self.line}:{self.column}"
        return f"{where}: {self.message}"


class InvalidValueError(GraphNormError, ValueError):
    """A value the caller passed that the library refuses, such as a
    namespace prefix or a skolemization scope that is not an absolute IRI.
    It is a ValueError too, as these refusals are documented."""


class UnsafeRuleError(GraphNormError):
    """A rule whose head is not fully grounded by its body, or contains a blank node."""


class UnsupportedFeatureError(GraphNormError):
    """Input requests a feature outside this implementation's scope."""


class EmptyGraphError(GraphNormError):
    """A statistic was requested over an empty graph where a ratio is undefined."""


class ResolverError(GraphNormError):
    """A locator could not be resolved to content."""
