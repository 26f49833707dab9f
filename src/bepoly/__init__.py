"""Exact Bernoulli/Euler polynomial algebra and identity verification.

Everything is computed over arbitrary-precision rationals; identities
are checked by reducing LHS - RHS to canonical form and testing it
against the zero polynomial, so every verification is a proof for the
parameters checked, not an approximation.  The package exports exactly
the names each module lists in its ``__all__``, and ``__version__``.
"""

from . import arith, catalog, operators, polynomials, sequences
from .arith import *  # noqa: F401,F403
from .polynomials import *  # noqa: F401,F403
from .sequences import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .catalog import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (arith, polynomials, sequences, operators, catalog)
           for name in module.__all__] + ["__version__"]
