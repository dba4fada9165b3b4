"""Exception hierarchy.

The split matters for the CLI exit codes: hypothesis violations (bad
inputs to the gluing construction) are distinguished from I/O and parse
problems and from certificates that simply fail.
"""


class PadicGlueError(Exception):
    """Base class for all library errors."""


class HypothesisViolation(PadicGlueError):
    """Input data violates a precondition of the gluing construction."""


class PoleInBallError(PadicGlueError):
    """A rational map has a pole inside a ball where it must be analytic."""


class HenselConditionError(PadicGlueError):
    """Newton iteration seeded at a point that does not satisfy |G| < |G'|^2."""


class LemmaInapplicable(PadicGlueError):
    """A transfer statement was invoked outside its range of validity."""


class SpecFormatError(PadicGlueError):
    """A JSON problem or result document is malformed."""


class LimitExceeded(PadicGlueError):
    """An input asks for more work than a named size limit allows."""
