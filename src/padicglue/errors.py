"""Exception hierarchy.

The split matters for the CLI exit codes: hypothesis violations (bad
inputs to the gluing construction) are distinguished from I/O and parse
problems and from certificates that simply fail.  Every value a
diagnostic echoes goes through `_show`, so no message grows with its input.
"""

import reprlib

# characters of an offending value that a diagnostic echoes
SHOW_LIMIT = 40


def _show(x) -> str:
    """An offending value as a diagnostic echoes it, cut to SHOW_LIMIT
    characters.  Strings and containers go through reprlib, which never
    walks deep nesting or prints a long string whole; numbers, field
    elements and balls print as str ('7/2', 'D(0; 3^(-2))')."""
    try:
        text = reprlib.repr(x) if isinstance(x, (str, list, dict)) else str(x)
    except (ValueError, LimitExceeded):  # no integer of more than 4300 digits
        return "<a value too long to print>"
    return text if len(text) <= SHOW_LIMIT else text[: SHOW_LIMIT - 3] + "..."


def _power_str(base, e) -> str:
    # the radius base^(-e) for a ValExp e, as balls and diagnostics print
    # it: a negative e = -k prints as base^(k), never as base^(--k)
    return f"{base}^({-e})" if e.t < 0 else f"{base}^(-{e})"


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
