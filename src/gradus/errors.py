"""Exception types shared across the engine."""


class GradusError(Exception):
    """Base class for computational errors raised by the engine."""


class ParseError(GradusError, ValueError):
    """Malformed polynomial, scalar, or ring text, or JSON input of the wrong shape."""


class GeneralPositionError(GradusError):
    """A point sample failed its general-position certificate past the retry budget."""


class VerificationError(GradusError):
    """An internal cross-check failed; signals a bug or a degenerate input."""
