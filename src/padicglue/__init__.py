"""Exact gluing of local analytic data on disjoint p-adic balls.

Everything is computed over K = Q(sqrt p) with exact rational arithmetic:
no floats, no approximations.  The library plans and builds a single
rational map agreeing with prescribed local maps on disjoint closed balls
up to a chosen tolerance, certifies the construction, and analyzes the
fixed points of the result (classification, Hensel refinement, orbits).

The package root re-exports the public names of the modules below; each
module's ``__all__`` is the one list of them.
"""

from . import algebra, dynamics, errors, field, geometry, gluing
from .algebra import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .errors import *  # noqa: F403
from .field import *  # noqa: F403
from .geometry import *  # noqa: F403
from .gluing import *  # noqa: F403

__version__ = "0.1.0"

__all__ = (field.__all__ + algebra.__all__ + geometry.__all__ + gluing.__all__
           + dynamics.__all__ + errors.__all__)
