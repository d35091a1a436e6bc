"""zetachain: tridiagonal quantum chains whose autocorrelation traces the Hurwitz zeta function.

Workflow: pick (N, a, sigma), synthesize the chain, evolve the bare edge
state, compare the autocorrelation against the zeta oracle, and export
the chain to spin-chain or curved waveguide-array hardware parameters.
"""

# each layer's __all__ is its public API; the package re-exports every one
from .core import *
from .design import *
from .errors import *
from .evolution import *
from .synthesis import *
from .verification import *
from .zetaref import *

__version__ = "0.1.0"
